//! The names of a repository's numbered files: archival containers
//! `archival/c<id>.ctr`, active-pool snapshots `active/a<cid>.ctr` and
//! recipes `recipes/r<version>.rcp`. Every place that writes, lists,
//! removes or quarantines one of them formats and parses the name here.

/// A kind of numbered repository file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepoFile {
    /// An archival container, `archival/c<id>.ctr`.
    Archival,
    /// An active-pool snapshot, `active/a<cid>.ctr` (pool-local id).
    Active,
    /// A version's recipe, `recipes/r<version>.rcp`.
    Recipe,
}

impl RepoFile {
    /// The directory under the repository root that holds this kind.
    pub fn dir(self) -> &'static str {
        match self {
            RepoFile::Archival => "archival",
            RepoFile::Active => "active",
            RepoFile::Recipe => "recipes",
        }
    }

    fn affixes(self) -> (char, &'static str) {
        match self {
            RepoFile::Archival => ('c', ".ctr"),
            RepoFile::Active => ('a', ".ctr"),
            RepoFile::Recipe => ('r', ".rcp"),
        }
    }

    /// The file name of number `n`, e.g. `c7.ctr`.
    pub fn name(self, n: u32) -> String {
        let (prefix, suffix) = self.affixes();
        format!("{prefix}{n}{suffix}")
    }

    /// The repository-relative path of number `n`, e.g. `archival/c7.ctr`.
    pub fn path(self, n: u32) -> String {
        format!("{}/{}", self.dir(), self.name(n))
    }

    /// Whether `name` has this kind's prefix and suffix, whatever lies
    /// between them.
    pub fn matches(self, name: &str) -> bool {
        let (prefix, suffix) = self.affixes();
        name.starts_with(prefix) && name.ends_with(suffix)
    }

    /// The number in `name` if it is this kind's prefix, a decimal `u32`
    /// and this kind's suffix. Archival ids and versions are never 0, so
    /// `c0.ctr` and `r0.rcp` parse to `None`; active ids start at 0.
    pub fn parse(self, name: &str) -> Option<u32> {
        let (prefix, suffix) = self.affixes();
        name.strip_prefix(prefix)?
            .strip_suffix(suffix)?
            .parse()
            .ok()
            .filter(|&n| n != 0 || self == RepoFile::Active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in [RepoFile::Archival, RepoFile::Active, RepoFile::Recipe] {
            for n in [1, 7, u32::MAX] {
                assert_eq!(kind.parse(&kind.name(n)), Some(n), "{kind:?}");
                assert!(kind.matches(&kind.name(n)));
            }
        }
        assert_eq!(RepoFile::Archival.path(7), "archival/c7.ctr");
        assert_eq!(RepoFile::Active.path(0), "active/a0.ctr");
        assert_eq!(RepoFile::Recipe.path(2), "recipes/r2.rcp");
    }

    #[test]
    fn only_active_ids_may_be_zero() {
        assert_eq!(RepoFile::Archival.parse("c0.ctr"), None);
        assert_eq!(RepoFile::Recipe.parse("r0.rcp"), None);
        assert_eq!(RepoFile::Active.parse("a0.ctr"), Some(0));
    }

    #[test]
    fn a_matching_shape_need_not_parse() {
        for name in ["cx.ctr", "c.ctr", "c-1.ctr", "c4294967296.ctr"] {
            assert!(RepoFile::Archival.matches(name), "{name}");
            assert_eq!(RepoFile::Archival.parse(name), None, "{name}");
        }
        assert!(!RepoFile::Archival.matches("a1.ctr"));
        assert!(!RepoFile::Recipe.matches("r1.rcp.tmp"));
        assert_eq!(RepoFile::Active.parse("c1.ctr"), None);
    }
}
