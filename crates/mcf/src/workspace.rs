//! Tests of [`IncrementalAllocator`](crate::IncrementalAllocator) used
//! the way one-shot callers use it: as a reusable allocation workspace
//! that is filled with one single-subflow group per entity, allocated,
//! cleared and refilled. Test-only; the allocator itself lives in
//! [`incremental`](crate::incremental).

mod tests {
    use crate::maxmin::{weighted_max_min, Entity};
    use crate::IncrementalAllocator;

    /// Loads `entities` as one single-subflow group each, allocates, and
    /// returns the rates in push order.
    fn fill_and_allocate(
        a: &mut IncrementalAllocator,
        capacity: &[f64],
        entities: &[Entity],
    ) -> Vec<f64> {
        a.clear();
        let groups: Vec<_> = entities
            .iter()
            .map(|e| a.push_group(e.weight, [e.links.iter().copied()]))
            .collect();
        a.allocate(capacity);
        groups.into_iter().map(|g| a.group_rates(g)[0]).collect()
    }

    fn entity(weight: f64, links: &[usize]) -> Entity {
        Entity {
            weight,
            links: links.to_vec(),
        }
    }

    #[test]
    fn matches_weighted_max_min_bitwise() {
        let cases: Vec<(Vec<f64>, Vec<Entity>)> = vec![
            (vec![10.0], vec![entity(1.0, &[0]), entity(1.0, &[0])]),
            (
                vec![10.0, 10.0],
                vec![entity(1.0, &[0, 1]), entity(1.0, &[0]), entity(1.0, &[1])],
            ),
            (
                vec![4.0, 10.0, 7.3],
                vec![
                    entity(2.5, &[0, 1]),
                    entity(1.0, &[0, 2]),
                    entity(0.5, &[1, 2]),
                    entity(1.0, &[2]),
                ],
            ),
        ];
        for (cap, ents) in cases {
            let a = weighted_max_min(&cap, &ents);
            let b = fill_and_allocate(&mut IncrementalAllocator::new(), &cap, &ents);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "rates must be bit-identical");
            }
        }
    }

    #[test]
    fn reuse_across_calls_is_clean() {
        let mut a = IncrementalAllocator::new();
        let shape = [entity(1.0, &[0, 1]), entity(1.0, &[0])];
        let first = fill_and_allocate(&mut a, &[10.0, 10.0], &shape);
        assert_eq!(first.len(), 2);
        // Second round: different shape and capacity vector length.
        let second = fill_and_allocate(&mut a, &[8.0], &[entity(3.0, &[0]), entity(1.0, &[0])]);
        assert!((second[0] - 6.0).abs() < 1e-9);
        assert!((second[1] - 2.0).abs() < 1e-9);
        // Third round: back to the first shape, rates must match round one.
        let third = fill_and_allocate(&mut a, &[10.0, 10.0], &shape);
        assert_eq!(first, third);
    }

    #[test]
    fn empty_workspace_allocates_nothing() {
        let mut a = IncrementalAllocator::new();
        assert!(fill_and_allocate(&mut a, &[5.0], &[]).is_empty());
        assert_eq!(a.num_groups(), 0);
        assert_eq!(a.num_entities(), 0);
        assert_eq!(a.stats().rounds, 0);
    }
}
