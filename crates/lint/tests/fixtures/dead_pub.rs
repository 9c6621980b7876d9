// Fixture: four `pub fn`s, of which `dead-pub` flags the two that nothing
// outside their own tests calls.

/// Used only by this file's test module: flagged.
pub fn only_tested() -> u32 {
    1
}

/// Called from `dead_pub_user.rs`: clean.
pub fn called_elsewhere() -> u32 {
    2
}

/// Called by this file's own library code: clean.
pub fn called_at_home() -> u32 {
    3
}

/// Named only in a comment and a string: flagged.
pub fn only_named() -> u32 {
    // only_named() is not a call.
    let _text = "only_named";
    called_at_home()
}

/// Not public outside its crate, so not the rule's business: clean.
pub(crate) fn crate_private() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(only_tested(), 1);
    }
}
