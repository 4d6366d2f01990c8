// Pragma fixture: malformed `hotgauge-lint:` comments, each reported as an
// L000 meta-diagnostic so typo'd grants never silently change behavior.

// hotgauge-lint: allow(L003)
pub fn missing_justification() {}

// hotgauge-lint: allow(L003, "")
pub fn empty_justification() {}

// hotgauge-lint: allow(L999, "this rule does not exist")
pub fn unknown_rule() {}

// hotgauge-lint: suppress everything please
pub fn no_clause() {}
