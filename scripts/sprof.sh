#!/usr/bin/env bash
# A sampling profiler for hosts without `perf`: scripts/sprof.sh <command…>
# runs the command with a SIGPROF preload (250 Hz of process CPU time) and
# prints where the samples of its busiest executable fell: by innermost
# inlined function, by out-of-line symbol (keyed by address, so each
# monomorphised copy of a generic function is its own row, labelled with
# the payload type its inlined frames name) and by file:line, then inclusive
# time by function (a sample counts once for every function any of its
# inlined frames names, so a callee inlined into its caller shows under
# both). Under `benchmark run`, raccd_benchmark::probe::Probe::after_rep
# (7-12 % of the samples) is the harness's host-speed probe between reps,
# not the simulator. Name a release
# binary (they carry line tables), not `cargo run`. Needs gcc, python3, nm
# and llvm-addr2line or addr2line (GNU's 2.40 names the enclosing symbol
# for an inlined frame, so with it the first table repeats the second);
# everything it writes goes under target/sprof/.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: scripts/sprof.sh <command…>" >&2; exit 2; }
dir="$(cd "$(dirname "$0")/.." && pwd)/target/sprof"
mkdir -p "$dir" && rm -f "$dir"/pcs.*
cat > "$dir/sprof.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define CAP (1 << 20)
static unsigned long pcs[CAP], base;
static volatile unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *uc) {
    if (n < CAP) pcs[n++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}
/* The first object dl_iterate_phdr reports is the executable itself. */
static int first(struct dl_phdr_info *info, size_t size, void *out) {
    *(unsigned long *)out = info->dlpi_addr;
    return 1;
}
static void timer(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, 0);
}
__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    dl_iterate_phdr(first, &base);
    sigaction(SIGPROF, &sa, 0);
    timer(4000);
}
/* One file per process: the executable's path, then one offset a line. */
__attribute__((destructor)) static void stop(void) {
    char path[4096], exe[4096] = {0};
    timer(0);
    snprintf(path, sizeof path, "%s/pcs.%d", getenv("SPROF_DIR"), (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) return;
    fprintf(f, "%s\n", exe);
    for (unsigned long i = 0; i < n; i++) fprintf(f, "%lx\n", pcs[i] - base);
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$dir/sprof.so" "$dir/sprof.c"
status=0
SPROF_DIR="$dir" LD_PRELOAD="$dir/sprof.so" "$@" || status=$?
python3 - "$dir" "$(command -v llvm-addr2line || command -v addr2line)" <<'EOF'
import bisect, collections, glob, re, subprocess, sys
by_exe = collections.defaultdict(list)
for path in glob.glob(sys.argv[1] + "/pcs.*"):
    exe, *pcs = open(path).read().splitlines() or [""]
    by_exe[exe] += [int(pc, 16) for pc in pcs]
if not any(by_exe.values()):
    sys.exit("sprof: no samples (under 4 ms of CPU time, or a static executable, which ignores LD_PRELOAD)")
exe, pcs = max(by_exe.items(), key=lambda kv: len(kv[1]))
hits = collections.Counter(pcs)
# Out-of-line symbols from nm: (start, size, name), sorted by start.
syms = []
for line in subprocess.run(["nm", "-C", "-S", "-n", "--defined-only", exe], capture_output=True, text=True).stdout.splitlines():
    f = line.split(None, 3)
    if len(f) == 4 and f[2] in "tTwW":
        syms.append((int(f[0], 16), int(f[1], 16), f[3]))
starts = [s[0] for s in syms]
def symbol(pc):
    i = bisect.bisect_right(starts, pc) - 1
    return i if i >= 0 and pc < syms[i][0] + syms[i][1] else None
def chains(pcs):
    """Inlined-frame chain per address from addr2line -i: (function,
    file:line) pairs, innermost frame first."""
    out = subprocess.run([sys.argv[2], "-e", exe, "-a", "-f", "-i", "-C"], input="".join(f"{pc:x}\n" for pc in pcs),
                         capture_output=True, text=True).stdout.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("0x")] + [len(out)]
    return {int(out[a], 16): list(zip(out[a + 1:b:2], out[a + 2:b:2])) for a, b in zip(heads, heads[1:])}
# Out-of-line time is keyed by symbol address: monomorphised copies of one
# generic function demangle to one name, so each copy that took samples is
# labelled with the generic frame from the repo's own sources its code
# inlines most often, e.g. `set_of<raccd_cache::llc::LlcLine>`.
outside = "[outside the executable: libc, vdso]"
copies = collections.Counter(s[2] for s in syms)
probe = {i: range(syms[i][0], syms[i][0] + syms[i][1], 4)[:4096]
         for i in set(map(symbol, hits)) if i is not None and copies[syms[i][2]] > 1}
framed = chains(pc for r in probe.values() for pc in r)
def own(f, at):
    """A named generic function (not a closure) from a source file of the repo."""
    return ("<" in f and not f.startswith("{") and at.startswith("/") and not at.startswith("/rustc/")
            and "/deps/" not in at and "/.cargo/" not in at)
def label(i):
    if i is None:
        return outside
    if i not in probe:
        return syms[i][2]
    generic = collections.Counter(f for pc in probe[i] for f, at in framed.get(pc, []) if own(f, at))
    return f"{syms[i][2]} [{generic.most_common(1)[0][0] if generic else 'copy'} @{syms[i][0]:#x}]"
labels = {i: label(i) for i in set(map(symbol, hits))}
outer = collections.Counter()
for pc, n in hits.items():
    outer[labels[symbol(pc)]] += n
inlined, lines, inclusive = collections.Counter(), collections.Counter(), collections.Counter()
for pc, chain in chains(hits).items():
    if not chain:
        continue
    names = [re.sub(r"::h[0-9a-f]{16}$", "", f) if f != "??" else labels[symbol(pc)] for f, _ in chain]
    inlined[names[0]] += hits[pc]
    lines[chain[0][1].split(" (discriminator")[0]] += hits[pc]
    for name in set(names):
        inclusive[name] += hits[pc]
print(f"# sprof: {len(pcs)} samples at 250 Hz in {exe}")
for title, table in [("self time by innermost inlined function", inlined), ("self time by out-of-line symbol", outer),
                     ("self time by file:line", lines), ("inclusive time by function", inclusive)]:
    print(f"\n# {title}")
    for name, n in table.most_common(15):
        print(f"{100 * n / len(pcs):5.1f} %  {n:6d}  {name}")
EOF
exit "$status"
