//! The Page-Table baseline classifier (§II-B, §V-A).
//!
//! "To implement PT we add a private/shared bit per TLB entry and intercept
//! page faults … we set the TLB entry to private if only one core has ever
//! accessed the page, otherwise we set it to shared." First touch makes a
//! page private to the touching core; the first access by *any other* core
//! makes it permanently shared, triggering a flush of the first core's
//! cached blocks and TLB entry. "Once a page is categorised as shared, it
//! never transitions back to private" — which is why PT misses temporarily
//! private data (Figure 2).

use raccd_mem::{FibMap, PageNum};

/// Classification of one physical page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageState {
    Private(u8),
    Shared,
}

/// What an access means under the PT policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtDecision {
    /// The page is private to the accessing core: non-coherent access.
    Private,
    /// The page is shared: coherent access.
    Shared,
    /// This access just made the page shared: the previous owner's cached
    /// blocks and TLB entry must be flushed, then the access is coherent.
    Transition {
        /// Core that previously owned the page.
        prev_owner: usize,
    },
}

/// The OS-side page classification table.
#[derive(Clone, Debug, Default)]
pub struct PageClassifier {
    pages: FibMap<u64, PageState>,
    transitions: u64,
}

impl PageClassifier {
    /// Empty classifier.
    pub fn new() -> Self {
        PageClassifier::default()
    }

    /// Classify one access by `core` to physical page `page`.
    pub fn on_access(&mut self, core: usize, page: PageNum) -> PtDecision {
        match self.pages.get(&page.0).copied() {
            None => {
                self.pages.insert(page.0, PageState::Private(core as u8));
                PtDecision::Private
            }
            Some(PageState::Private(owner)) if owner as usize == core => PtDecision::Private,
            Some(PageState::Private(owner)) => {
                self.pages.insert(page.0, PageState::Shared);
                self.transitions += 1;
                PtDecision::Transition {
                    prev_owner: owner as usize,
                }
            }
            Some(PageState::Shared) => PtDecision::Shared,
        }
    }

    /// Whether the page is currently private to `core` (no LRU/side
    /// effects; used by block-census instrumentation).
    pub fn is_private_to(&self, core: usize, page: PageNum) -> bool {
        matches!(self.pages.get(&page.0), Some(PageState::Private(o)) if *o as usize == core)
    }

    /// Whether some page is private to a core at or above `ncores`: a
    /// restored classifier would hand that core to `Machine::flush_page`.
    pub(crate) fn names_core_at_or_above(&self, ncores: usize) -> bool {
        let absent = |s: &PageState| matches!(s, PageState::Private(o) if *o as usize >= ncores);
        self.pages.values().any(absent)
    }

    /// Private→shared transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

// Hand-written: a tuple variant (`snap_enum!` lists fields by name).
impl raccd_snap::Snap for PageState {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        match *self {
            PageState::Private(core) => {
                w.u8(0);
                w.u8(core);
            }
            PageState::Shared => w.u8(1),
        }
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        Ok(match r.u8()? {
            0 => PageState::Private(r.u8()?),
            1 => PageState::Shared,
            _ => return Err(raccd_snap::SnapError::Invalid("page state tag")),
        })
    }
}

raccd_snap::snap_record!(PageClassifier { pages, transitions });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_private() {
        let mut pt = PageClassifier::new();
        assert_eq!(pt.on_access(3, PageNum(7)), PtDecision::Private);
        assert_eq!(pt.on_access(3, PageNum(7)), PtDecision::Private);
        assert!(pt.is_private_to(3, PageNum(7)));
        assert_eq!(pt.transitions(), 0);
    }

    #[test]
    fn second_core_triggers_transition() {
        let mut pt = PageClassifier::new();
        pt.on_access(1, PageNum(9));
        assert_eq!(
            pt.on_access(2, PageNum(9)),
            PtDecision::Transition { prev_owner: 1 }
        );
        assert_eq!(pt.on_access(2, PageNum(9)), PtDecision::Shared);
        assert_eq!(pt.on_access(1, PageNum(9)), PtDecision::Shared);
        assert_eq!(pt.transitions(), 1);
    }

    #[test]
    fn shared_never_reverts() {
        // The paper's criticism of PT: temporarily-private data stays
        // classified shared forever.
        let mut pt = PageClassifier::new();
        pt.on_access(0, PageNum(5));
        pt.on_access(1, PageNum(5)); // transition
                                     // Core 1 is now the sole user for a long phase — still Shared.
        for _ in 0..100 {
            assert_eq!(pt.on_access(1, PageNum(5)), PtDecision::Shared);
        }
        assert!(!pt.is_private_to(1, PageNum(5)));
    }

    /// Once `core` has touched `page`, its next touch returns Private or
    /// Shared and changes no state, whatever other cores did before: the
    /// driver accounts the rest of a same-block run without calling it.
    #[test]
    fn a_repeat_touch_by_the_same_core_changes_nothing() {
        let mut pt = PageClassifier::new();
        let touches = [
            (0, 1),
            (1, 1),
            (1, 1),
            (0, 1),
            (2, 3),
            (2, 3),
            (1, 3),
            (3, 2),
        ];
        for (core, page) in touches {
            pt.on_access(core, PageNum(page));
            let before = raccd_snap::encode(&pt);
            let again = pt.on_access(core, PageNum(page));
            assert!(matches!(again, PtDecision::Private | PtDecision::Shared));
            assert_eq!(raccd_snap::encode(&pt), before, "core {core} page {page}");
        }
    }

    #[test]
    fn pages_independent() {
        let mut pt = PageClassifier::new();
        pt.on_access(0, PageNum(1));
        pt.on_access(1, PageNum(2));
        assert!(pt.is_private_to(0, PageNum(1)));
        assert!(pt.is_private_to(1, PageNum(2)));
        assert_eq!(pt.pages.len(), 2);
    }
}
