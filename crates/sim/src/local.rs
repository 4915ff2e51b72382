//! Process-local variables shared between the tasks of one process.
//!
//! The paper's algorithms communicate between co-located modules through
//! *local* input/output variables: `candidate_p`, `leader_p`,
//! `monitoring_p[q]`, `active-for_q[p]`, `status_p[q]`, `faultCntr_p[q]`.
//! These are not shared registers — reading or writing them costs no step
//! by itself (the enclosing loop iteration pays the step) — but they are
//! read and written by different tasks of the same process, so they need
//! interior mutability. A run lives on one thread, so [`Local`] is a tiny
//! `Rc<RefCell<T>>` wrapper with value semantics for get/set.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A process-local variable shared by the tasks of one process.
///
/// Cloning a `Local` clones the *handle*; all clones see the same value.
///
/// ```
/// use tbwf_sim::Local;
///
/// let candidate = Local::new(false);
/// let omega_view = candidate.clone(); // another task's handle
/// candidate.set(true);
/// assert!(omega_view.get());
/// ```
pub struct Local<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> Clone for Local<T> {
    fn clone(&self) -> Self {
        Local {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: Clone> Local<T> {
    /// Creates a new local variable with the given initial value.
    pub fn new(value: T) -> Self {
        Local {
            inner: Rc::new(RefCell::new(value)),
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> T {
        self.inner.borrow().clone()
    }

    /// Writes a new value.
    pub fn set(&self, value: T) {
        *self.inner.borrow_mut() = value;
    }

    /// Applies `f` to the value in place and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if `f` reads or writes this same variable: the value is
    /// borrowed mutably while `f` runs.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

impl<T: Clone + Default> Default for Local<T> {
    fn default() -> Self {
        Local::new(T::default())
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for Local<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Local({:?})", self.get())
    }
}

/// A vector of local variables indexed by process id, convenient for the
/// paper's `var[q]`-style vectors.
#[derive(Clone)]
pub struct LocalVec<T> {
    cells: Vec<Local<T>>,
}

impl<T: Clone> LocalVec<T> {
    /// Creates `n` local variables, all initialized to `init`.
    pub fn new(n: usize, init: T) -> Self {
        LocalVec {
            cells: (0..n).map(|_| Local::new(init.clone())).collect(),
        }
    }

    /// The cell for process `q`.
    pub fn cell(&self, q: crate::ProcId) -> &Local<T> {
        &self.cells[q.0]
    }

    /// Reads `var[q]`.
    pub fn get(&self, q: crate::ProcId) -> T {
        self.cells[q.0].get()
    }

    /// Writes `var[q]`.
    pub fn set(&self, q: crate::ProcId, value: T) {
        self.cells[q.0].set(value);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for LocalVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.cells.iter().map(|c| c.get()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcId;

    #[test]
    fn get_set_roundtrip() {
        let v = Local::new(5);
        assert_eq!(v.get(), 5);
        v.set(9);
        assert_eq!(v.get(), 9);
    }

    #[test]
    fn clones_share_state() {
        let a = Local::new("x".to_string());
        let b = a.clone();
        b.set("y".to_string());
        assert_eq!(a.get(), "y");
    }

    #[test]
    fn update_returns_result() {
        let v = Local::new(10);
        let old = v.update(|x| {
            let old = *x;
            *x += 1;
            old
        });
        assert_eq!(old, 10);
        assert_eq!(v.get(), 11);
    }

    #[test]
    fn local_vec_indexing() {
        let v = LocalVec::new(4, 0i64);
        v.set(ProcId(2), 7);
        assert_eq!(v.get(ProcId(2)), 7);
        assert_eq!(v.get(ProcId(0)), 0);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
    }
}
