//! Where the tree keeps its subscriptions, and how a node names the ones
//! parked on it.
//!
//! A subscription lives in a numbered *slot* that stays put for as long as
//! it is registered, so a tail can remember where the tests of its chain are
//! — one parked subscription's slot — and reading them is an index, not a
//! hash lookup. The one id → slot map is consulted where an id comes from
//! outside: [`Pst::subscription`](super::Pst), duplicates, removal.

use std::collections::HashMap;

use linkcast_types::{Subscription, SubscriptionId};

/// "No slot": what an interior node remembers.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// The registered subscriptions.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab {
    slots: Vec<Option<Subscription>>,
    /// Vacated slots, reused last freed first.
    free: Vec<u32>,
    by_id: HashMap<SubscriptionId, u32>,
}

impl Slab {
    /// The slot the next [`insert`](Self::insert) will fill.
    pub(crate) fn vacant(&self) -> u32 {
        (self.free.last().copied()).unwrap_or(self.slots.len() as u32)
    }

    /// Stores `subscription` (whose id must not be registered) in the
    /// [`vacant`](Self::vacant) slot.
    pub(crate) fn insert(&mut self, subscription: Subscription) -> u32 {
        let id = subscription.id();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(subscription);
                slot
            }
            None => {
                self.slots.push(Some(subscription));
                (self.slots.len() - 1) as u32
            }
        };
        let displaced = self.by_id.insert(id, slot);
        debug_assert!(displaced.is_none(), "{id} was registered already");
        slot
    }

    /// Takes the subscription registered as `id` out of its slot, which is
    /// returned with it.
    pub(crate) fn remove(&mut self, id: SubscriptionId) -> Option<(u32, Subscription)> {
        let slot = self.by_id.remove(&id)?;
        self.free.push(slot);
        let subscription = self.slots[slot as usize].take();
        debug_assert!(subscription.is_some(), "{id} mapped to a vacant slot");
        subscription.map(|s| (slot, s))
    }

    pub(crate) fn slot_of(&self, id: SubscriptionId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.at(self.slot_of(id)?)
    }

    /// The subscription in `slot`; `None` for a vacant or unknown one.
    pub(crate) fn at(&self, slot: u32) -> Option<&Subscription> {
        self.slots.get(slot as usize)?.as_ref()
    }

    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Every registered subscription, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.slots.iter().flatten()
    }
}

/// The subscriptions parked on one node, ascending by id: none on an
/// interior node, and where there is exactly one — an unshared predicate,
/// the common case — it sits in the node itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct Parked {
    ids: Ids,
    /// The slot of one of them ([`NO_SLOT`] when there is none): where the
    /// tests of the node's chain are read, since all of them agree on it.
    slot: u32,
}

#[derive(Debug, Clone, Default)]
enum Ids {
    #[default]
    None,
    One(SubscriptionId),
    /// Two or more.
    Many(Vec<SubscriptionId>),
}

impl Parked {
    pub(crate) fn as_slice(&self) -> &[SubscriptionId] {
        match &self.ids {
            Ids::None => &[],
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self.ids, Ids::None)
    }

    /// The slot the chain's tests are read through.
    pub(crate) fn slot(&self) -> u32 {
        if self.is_empty() {
            NO_SLOT
        } else {
            self.slot
        }
    }

    /// Parks `id`, which lives in `slot` (a no-op if it is parked already).
    pub(crate) fn insert(&mut self, id: SubscriptionId, slot: u32) {
        match &mut self.ids {
            Ids::None => {
                self.ids = Ids::One(id);
                self.slot = slot;
            }
            Ids::One(only) if *only == id => {}
            Ids::One(only) => {
                let (low, high) = (id.min(*only), id.max(*only));
                self.ids = Ids::Many(vec![low, high]);
            }
            Ids::Many(ids) => {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
        }
    }

    /// Un-parks `id`, which lived in `slot`. If the chain was read through
    /// that slot and others stay parked, `slot_of` says where the first of
    /// them lives.
    pub(crate) fn remove(
        &mut self,
        id: SubscriptionId,
        slot: u32,
        slot_of: impl Fn(SubscriptionId) -> Option<u32>,
    ) {
        match &mut self.ids {
            Ids::One(only) if *only == id => self.ids = Ids::None,
            Ids::Many(ids) => {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
                if let [only] = ids.as_slice() {
                    self.ids = Ids::One(*only);
                }
            }
            _ => {}
        }
        if self.slot == slot {
            let first = self.as_slice().first();
            self.slot = first.and_then(|id| slot_of(*id)).unwrap_or(NO_SLOT);
        }
    }
}
