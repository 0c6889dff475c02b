//! Reading `UdfProgram::disassemble()` output in tests that assert on the
//! shape of the program a UDF runs as.

/// The ops of a listing, one per element, without the `NNNN: ` prefix
/// (the constant pool and the scan descriptors that follow them are
/// dropped).
pub fn ops(listing: &str) -> Vec<&str> {
    listing
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| &l[6..])
        .collect()
}

/// The descriptor of `Scan { desc: d }`: the text after `sd: `.
pub fn scan<'a>(listing: &'a str, op: &str) -> Option<&'a str> {
    let prefix = format!("s{}: ", field(op, "Scan { desc: ")?);
    listing
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(prefix.as_str()))
}

/// The number after `key` in an op, e.g. `field(op, "exit: ")`.
pub fn field(op: &str, key: &str) -> Option<usize> {
    let rest = &op[op.find(key)? + key.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}
