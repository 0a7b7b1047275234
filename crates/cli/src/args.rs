//! A small `--flag value` argument parser — deliberately dependency-free
//! (the workspace's dependency budget is documented in DESIGN.md).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

/// Parse error for CLI arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// A value could not be parsed into the requested type.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// Expected type name.
        expected: &'static str,
    },
    /// A token did not look like `--flag`, and was not a leading operand.
    UnexpectedToken(String),
    /// A flag was given twice.
    Duplicate(String),
    /// A flag was given that the command never read.
    Unread(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => {
                write!(f, "flag --{flag} needs a value")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value}: expected {expected}"),
            ArgError::UnexpectedToken(t) => {
                write!(f, "unexpected argument `{t}` (flags are --name value)")
            }
            ArgError::Duplicate(flag) => write!(f, "--{flag} given twice"),
            ArgError::Unread(flag) => write!(f, "--{flag} is not read by this command"),
        }
    }
}

impl std::error::Error for ArgError {}

/// An optional leading operand (`reproduce fig4`) and `--flag value`
/// pairs. Each flag remembers whether it was read, so a command can refuse
/// the ones it never reads ([`Args::unread`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    operand: Option<String>,
    values: BTreeMap<String, (String, Cell<bool>)>,
}

impl Args {
    /// Parses a token stream: at most one operand, first, then
    /// `--flag value` pairs.
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values = BTreeMap::new();
        let mut iter = tokens.into_iter().map(Into::into).peekable();
        let operand = iter.next_if(|t| !t.starts_with("--"));
        while let Some(tok) = iter.next() {
            let flag = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken(tok.clone()))?
                .to_string();
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(flag.clone()))?;
            if value.starts_with("--") {
                return Err(ArgError::MissingValue(flag));
            }
            let unread = (value, Cell::new(false));
            if values.insert(flag.clone(), unread).is_some() {
                return Err(ArgError::Duplicate(flag));
            }
        }
        Ok(Args { operand, values })
    }

    /// The leading operand, if one was given.
    pub fn operand(&self) -> Option<&str> {
        self.operand.as_deref()
    }

    /// The raw string value of a flag, if present; marks it read.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let (value, read) = self.values.get(flag)?;
        read.set(true);
        Some(value)
    }

    /// A typed flag value, or `default` when absent; marks it read.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.into(),
                value: v.into(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// The first given flag that no [`Args::get`] or [`Args::get_or`]
    /// has read.
    pub fn unread(&self) -> Option<&str> {
        self.values
            .iter()
            .find(|(_, (_, read))| !read.get())
            .map(|(flag, _)| flag.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flag_value_pairs() {
        let a = Args::parse(["--model", "vgg19", "--hl", "3"]).unwrap();
        assert_eq!(a.get("model"), Some("vgg19"));
        assert_eq!(a.get_or("hl", 1usize).unwrap(), 3);
        assert_eq!(a.get_or("p", 3usize).unwrap(), 3); // default
    }

    #[test]
    fn rejects_missing_value() {
        assert_eq!(
            Args::parse(["--model"]),
            Err(ArgError::MissingValue("model".into()))
        );
        assert_eq!(
            Args::parse(["--a", "--b"]),
            Err(ArgError::MissingValue("a".into()))
        );
    }

    #[test]
    fn rejects_bare_tokens_and_duplicates() {
        assert!(matches!(
            Args::parse(["--x", "1", "oops"]),
            Err(ArgError::UnexpectedToken(_))
        ));
        assert!(matches!(
            Args::parse(["fig4", "oops"]),
            Err(ArgError::UnexpectedToken(_))
        ));
        assert_eq!(
            Args::parse(["--x", "1", "--x", "2"]),
            Err(ArgError::Duplicate("x".into()))
        );
    }

    #[test]
    fn a_leading_operand_is_kept() {
        let a = Args::parse(["fig4", "--x", "1"]).unwrap();
        assert_eq!(a.operand(), Some("fig4"));
        assert_eq!(a.get("x"), Some("1"));
        assert_eq!(Args::parse(["--x", "1"]).unwrap().operand(), None);
    }

    #[test]
    fn a_flag_is_unread_until_read() {
        let a = Args::parse(["--hl", "3", "--max-update", "10"]).unwrap();
        assert_eq!(a.unread(), Some("hl"));
        assert_eq!(a.get_or("hl", 1usize).unwrap(), 3);
        assert_eq!(a.get("max-updates"), None);
        assert_eq!(a.unread(), Some("max-update"));
        let e = ArgError::Unread("max-update".into()).to_string();
        assert!(e.starts_with("--max-update "), "{e}");
        assert_eq!(a.get("max-update"), Some("10"));
        assert_eq!(a.unread(), None);
    }

    #[test]
    fn typed_parse_errors_are_descriptive() {
        let a = Args::parse(["--hl", "three"]).unwrap();
        let e = a.get_or("hl", 1usize).unwrap_err();
        assert!(e.to_string().contains("three"));
    }
}
