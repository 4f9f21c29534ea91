//! Tenant identifiers: the protocol-level names of isolated repositories.
//!
//! A tenant id doubles as a directory name under the server's tenant root,
//! so validation is a security boundary: every id accepted here must be
//! safe to join onto a path without escaping it. The grammar is therefore
//! deliberately narrow — lowercase ASCII alphanumerics plus `-`, `_` and
//! `.`, starting with an alphanumeric, at most [`MAX_TENANT_ID_LEN`]
//! bytes. That excludes `..`, path separators, hidden-file prefixes,
//! flag-like leading dashes, and (by forbidding uppercase) aliasing on
//! case-insensitive filesystems. Validation happens at decode time: a
//! request carrying a bad tenant id never reaches dispatch.

use std::fmt;

/// Maximum length of a tenant id in bytes.
pub const MAX_TENANT_ID_LEN: usize = 64;

/// Name of the tenant a client addresses until it names another, and the
/// one tenant a single-repository mount serves.
pub const DEFAULT_TENANT: &str = "default";

/// Why a candidate tenant id was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantIdError {
    /// The id was empty.
    Empty,
    /// The id exceeded [`MAX_TENANT_ID_LEN`] bytes.
    TooLong {
        /// Length of the rejected id.
        len: usize,
    },
    /// The first character was not a lowercase ASCII alphanumeric.
    BadStart {
        /// The offending character.
        ch: char,
    },
    /// A character outside `[a-z0-9._-]` appeared.
    BadChar {
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for TenantIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantIdError::Empty => write!(f, "tenant id is empty"),
            TenantIdError::TooLong { len } => write!(
                f,
                "tenant id is {len} bytes, maximum is {MAX_TENANT_ID_LEN}"
            ),
            TenantIdError::BadStart { ch } => write!(
                f,
                "tenant id must start with a lowercase letter or digit, not {ch:?}"
            ),
            TenantIdError::BadChar { ch } => {
                write!(f, "tenant id may only contain [a-z0-9._-], found {ch:?}")
            }
        }
    }
}

impl std::error::Error for TenantIdError {}

/// A validated tenant id. Constructing one is the *only* way a tenant name
/// enters the system: [`TenantId::new`] enforces the grammar, so any
/// `TenantId` value is safe to use as a single path component.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Validates `s` as a tenant id.
    ///
    /// # Errors
    ///
    /// Typed [`TenantIdError`] naming the first rule violated.
    pub fn new(s: &str) -> Result<Self, TenantIdError> {
        let mut chars = s.chars();
        let first = chars.next().ok_or(TenantIdError::Empty)?;
        if s.len() > MAX_TENANT_ID_LEN {
            return Err(TenantIdError::TooLong { len: s.len() });
        }
        if !first.is_ascii_lowercase() && !first.is_ascii_digit() {
            return Err(TenantIdError::BadStart { ch: first });
        }
        for ch in chars {
            let ok =
                ch.is_ascii_lowercase() || ch.is_ascii_digit() || matches!(ch, '-' | '_' | '.');
            if !ok {
                return Err(TenantIdError::BadChar { ch });
            }
        }
        Ok(TenantId(s.to_string()))
    }

    /// The [`DEFAULT_TENANT`].
    #[must_use]
    pub fn default_tenant() -> Self {
        TenantId(DEFAULT_TENANT.to_string())
    }

    /// The id as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this is the implicit [`DEFAULT_TENANT`].
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.0 == DEFAULT_TENANT
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TenantId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for TenantId {
    type Err = TenantIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TenantId::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_reasonable_ids() {
        for ok in [
            "default",
            "a",
            "0",
            "alice",
            "tenant-7",
            "acme_corp.backups",
            "a.b-c_d9",
            &"x".repeat(MAX_TENANT_ID_LEN),
        ] {
            assert!(TenantId::new(ok).is_ok(), "{ok:?} should be accepted");
        }
        assert!(TenantId::default_tenant().is_default());
        assert!(!TenantId::new("alice").unwrap().is_default());
    }

    #[test]
    fn rejects_traversal_and_hostile_ids() {
        assert_eq!(TenantId::new(""), Err(TenantIdError::Empty));
        assert_eq!(
            TenantId::new(&"x".repeat(MAX_TENANT_ID_LEN + 1)),
            Err(TenantIdError::TooLong {
                len: MAX_TENANT_ID_LEN + 1
            })
        );
        // Traversal and separators can never survive validation.
        assert_eq!(
            TenantId::new(".."),
            Err(TenantIdError::BadStart { ch: '.' })
        );
        assert_eq!(TenantId::new("."), Err(TenantIdError::BadStart { ch: '.' }));
        assert_eq!(
            TenantId::new("../escape"),
            Err(TenantIdError::BadStart { ch: '.' })
        );
        assert_eq!(
            TenantId::new("a/../b"),
            Err(TenantIdError::BadChar { ch: '/' })
        );
        assert_eq!(
            TenantId::new("a\\b"),
            Err(TenantIdError::BadChar { ch: '\\' })
        );
        assert_eq!(
            TenantId::new("a..b"),
            Ok(TenantId("a..b".into())),
            "interior dots are harmless once separators are impossible"
        );
        // Flag-like, hidden, uppercase, spaced, and NUL-bearing ids.
        assert_eq!(
            TenantId::new("-rf"),
            Err(TenantIdError::BadStart { ch: '-' })
        );
        assert_eq!(
            TenantId::new(".hidden"),
            Err(TenantIdError::BadStart { ch: '.' })
        );
        assert_eq!(
            TenantId::new("Alice"),
            Err(TenantIdError::BadStart { ch: 'A' })
        );
        assert_eq!(
            TenantId::new("a b"),
            Err(TenantIdError::BadChar { ch: ' ' })
        );
        assert_eq!(
            TenantId::new("a\0b"),
            Err(TenantIdError::BadChar { ch: '\0' })
        );
        assert_eq!(
            TenantId::new("año"),
            Err(TenantIdError::BadChar { ch: 'ñ' })
        );
    }
}
