//! Schema helpers shared by the report and protocol goldens.

use std::collections::BTreeSet;

use vgl_obs::json::Json;

/// Every key path in `j`, dot-separated. Arrays collapse to `[]` (the
/// union of their elements' paths). The children of an `opaque` path — a
/// map whose keys come from the program or the traffic, like the opcode
/// histogram — are not listed, only the path itself.
pub fn key_paths(j: &Json, opaque: &[&str]) -> BTreeSet<String> {
    fn walk(j: &Json, prefix: &str, opaque: &[&str], out: &mut BTreeSet<String>) {
        match j {
            Json::Obj(entries) if !opaque.contains(&prefix) => {
                for (k, v) in entries {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    out.insert(path.clone());
                    walk(v, &path, opaque, out);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, &format!("{prefix}[]"), opaque, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(j, "", opaque, &mut out);
    out
}
