//! The clock abstraction: the [`Clocked`] trait.

/// A component driven by a single clock.
///
/// `tick` advances the component by exactly one cycle. Components compose:
/// a parent's `tick` calls its children's `tick` in dataflow order.
pub trait Clocked {
    /// Advance one clock cycle.
    fn tick(&mut self);
}

impl<T: Clocked + ?Sized> Clocked for Box<T> {
    fn tick(&mut self) {
        (**self).tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Counter(Rc<Cell<u64>>);
    impl Clocked for Counter {
        fn tick(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn boxed_clocked_delegates() {
        let count = Rc::new(Cell::new(0));
        let mut boxed: Box<dyn Clocked> = Box::new(Counter(Rc::clone(&count)));
        boxed.tick();
        assert_eq!(count.get(), 1);
    }
}
