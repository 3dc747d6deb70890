//! Seeded sampling without replacement, so that a run's mix of inputs
//! barely depends on its seed: the seed decides the order, not the mix.

use locus_space::SplitMix64;

/// A fixed set of items dealt in a seeded shuffled order; once every
/// item has been dealt, the deck is reshuffled.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    dealt: usize,
}

impl<T: Clone> Deck<T> {
    pub fn new(items: Vec<T>) -> Deck<T> {
        assert!(!items.is_empty(), "a deck needs at least one item");
        let dealt = items.len();
        Deck { items, dealt }
    }

    pub fn draw(&mut self, rng: &mut SplitMix64) -> T {
        if self.dealt == self.items.len() {
            rng.shuffle(&mut self.items);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.items[self.dealt - 1].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_is_dealt_once_per_pass() {
        let mut rng = SplitMix64::new(3);
        let mut deck = Deck::new((0..10).collect::<Vec<u32>>());
        for _ in 0..3 {
            let mut pass: Vec<u32> = (0..10).map(|_| deck.draw(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..10).collect::<Vec<u32>>());
        }
    }
}
