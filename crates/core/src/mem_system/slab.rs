//! A free-list slab: the in-flight request table of the cycle-accurate
//! walk. An entry's id is its slot index, handed out again once the entry
//! is removed, so memory is bounded by the peak number of live entries and
//! a lookup is an index.

pub(super) struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Vacant slot indices, most recently freed last.
    free: Vec<usize>,
}

impl<T> Slab<T> {
    pub(super) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Live entries.
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Store `value`; returns its id.
    pub(super) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(id) => {
                self.slots[id] = Some(value);
                id
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    pub(super) fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.slots.get_mut(id)?.as_mut()
    }

    /// Remove the entry `id`, freeing its slot for the next insert.
    pub(super) fn remove(&mut self, id: usize) -> Option<T> {
        let value = self.slots.get_mut(id)?.take()?;
        self.free.push(id);
        Some(value)
    }

    /// Live entries with their ids, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_rng::SmallRng;

    /// Against a model list of the live `(id, value)` pairs: same contents,
    /// ids reused only once vacant, never more slots than the peak.
    #[test]
    fn matches_a_model_and_reuses_only_vacant_slots() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut slab = Slab::new();
        let mut model: Vec<(usize, u64)> = Vec::new();
        let mut peak = 0;
        for step in 0..20_000u64 {
            if model.is_empty() || rng.gen_bool(0.55) {
                let id = slab.insert(step);
                assert!(
                    model.iter().all(|&(live, _)| live != id),
                    "id {id} handed out twice"
                );
                model.push((id, step));
            } else {
                let (id, value) = model.swap_remove(rng.gen_range(0..model.len()));
                assert_eq!(slab.remove(id), Some(value));
                assert_eq!(slab.remove(id), None, "a vacant slot removes nothing");
            }
            peak = peak.max(model.len());
            assert_eq!(slab.len(), model.len());
        }
        assert_eq!(slab.slots.len(), peak);
        let mut live: Vec<(usize, u64)> = slab.iter().map(|(id, &v)| (id, v)).collect();
        live.sort_unstable();
        model.sort_unstable();
        assert_eq!(live, model);
    }
}
