//! Operation outcomes for abortable registers.

use std::fmt;

/// Result of a write on an abortable register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteOutcome {
    /// The write succeeded and took effect.
    Ok,
    /// The write aborted (`⊥`): it was concurrent with another operation
    /// and **may or may not** have taken effect — the writer cannot tell.
    Aborted,
}

impl WriteOutcome {
    /// Whether the write returned `ok`.
    pub fn is_ok(self) -> bool {
        self == WriteOutcome::Ok
    }

    /// Whether the write returned `⊥`.
    pub fn is_aborted(self) -> bool {
        self == WriteOutcome::Aborted
    }
}

impl fmt::Display for WriteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOutcome::Ok => write!(f, "ok"),
            WriteOutcome::Aborted => write!(f, "⊥"),
        }
    }
}

/// Result of a read on an abortable register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadOutcome<T> {
    /// The read succeeded and returned the register's value.
    Value(T),
    /// The read aborted (`⊥`): it was concurrent with another operation
    /// and returned no value.
    Aborted,
}

impl<T> ReadOutcome<T> {
    /// Whether the read aborted.
    pub fn is_aborted(&self) -> bool {
        matches!(self, ReadOutcome::Aborted)
    }

    /// The value, if the read succeeded.
    pub fn value(self) -> Option<T> {
        match self {
            ReadOutcome::Value(v) => Some(v),
            ReadOutcome::Aborted => None,
        }
    }

    /// Maps the value, preserving aborts.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> ReadOutcome<U> {
        match self {
            ReadOutcome::Value(v) => ReadOutcome::Value(f(v)),
            ReadOutcome::Aborted => ReadOutcome::Aborted,
        }
    }
}

impl<T: fmt::Display> fmt::Display for ReadOutcome<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadOutcome::Value(v) => write!(f, "{v}"),
            ReadOutcome::Aborted => write!(f, "⊥"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_outcome_predicates() {
        assert!(WriteOutcome::Ok.is_ok());
        assert!(!WriteOutcome::Ok.is_aborted());
        assert!(WriteOutcome::Aborted.is_aborted());
        assert_eq!(WriteOutcome::Aborted.to_string(), "⊥");
    }

    #[test]
    fn read_outcome_accessors() {
        let r: ReadOutcome<i32> = ReadOutcome::Value(5);
        assert_eq!(r.value(), Some(5));
        let a: ReadOutcome<i32> = ReadOutcome::Aborted;
        assert!(a.is_aborted());
        assert_eq!(a.value(), None);
    }

    #[test]
    fn read_outcome_map() {
        let r: ReadOutcome<i32> = ReadOutcome::Value(5);
        assert_eq!(r.map(|v| v * 2), ReadOutcome::Value(10));
        let a: ReadOutcome<i32> = ReadOutcome::Aborted;
        assert_eq!(a.map(|v| v * 2), ReadOutcome::Aborted);
    }
}
