//! Error types for the automata crate.

use std::fmt;

/// Errors produced by parsing and language-analysis routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutomataError {
    /// A regular expression could not be parsed.
    RegexParse {
        /// Byte position of the offending character in the input.
        position: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A letter outside the expected alphabet was encountered.
    UnknownLetter(char),
    /// An operation requiring a finite language was applied to an infinite one.
    InfiniteLanguage,
    /// An operation requiring a non-empty language was applied to the empty one.
    EmptyLanguage,
    /// An analysis exceeded its configured resource budget (e.g. the
    /// transition-monoid enumeration of [`crate::star_free`] grew too large).
    BudgetExceeded {
        /// Which analysis hit the budget.
        analysis: &'static str,
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// The input automaton or language does not satisfy a precondition of the
    /// requested construction (e.g. building an RO-εNFA from a non-local language).
    Precondition(String),
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::RegexParse { position, message } => {
                write!(f, "regex parse error at position {position}: {message}")
            }
            AutomataError::UnknownLetter(c) => write!(f, "unknown letter {c:?}"),
            AutomataError::InfiniteLanguage => {
                write!(f, "operation requires a finite language but the language is infinite")
            }
            AutomataError::EmptyLanguage => {
                write!(f, "operation requires a non-empty language but the language is empty")
            }
            AutomataError::BudgetExceeded { analysis, limit } => {
                write!(f, "{analysis} exceeded its resource budget of {limit}")
            }
            AutomataError::Precondition(msg) => write!(f, "precondition violated: {msg}"),
        }
    }
}

impl std::error::Error for AutomataError {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AutomataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = AutomataError::RegexParse { position: 3, message: "unexpected ')'".into() };
        assert!(e.to_string().contains("position 3"));
        let e = AutomataError::UnknownLetter('Z');
        assert!(e.to_string().contains('Z'));
        let e = AutomataError::BudgetExceeded { analysis: "aperiodicity", limit: 10 };
        assert!(e.to_string().contains("aperiodicity"));
        let e = AutomataError::Precondition("x".into());
        assert!(e.to_string().contains('x'));
        assert!(AutomataError::InfiniteLanguage.to_string().contains("infinite"));
        assert!(AutomataError::EmptyLanguage.to_string().contains("empty"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&AutomataError::UnknownLetter('a'));
    }
}
