//! A `TUNED.json` that still carries keys of knobs since retired to
//! constants loads through `EXA_TUNED`, and the live knobs resolve from
//! it. Its own test binary, so the process-wide table is loaded here
//! first.

use exa_tune::knob;

#[test]
fn knob_resolves_from_a_table_with_retired_keys() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("retired_keys.json");
    std::fs::write(
        &path,
        "{\n  \"version\": 1,\n  \"seed\": 1,\n  \"machine\": \"frontier\",\n  \"knobs\": {\n    \
         \"exec.max_blocks\": 64,\n    \"fft.gather\": 1,\n    \"sched.task_chunks\": 64\n  }\n}\n",
    )
    .expect("can write the table");
    std::env::set_var("EXA_TUNED", &path);
    assert_eq!(knob("fft.gather", 0), 1);
    assert_eq!(
        knob("fft.line_batch", 1),
        1,
        "absent key falls back to frozen"
    );
}
