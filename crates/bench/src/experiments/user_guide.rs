//! §5 — generate the early-access quick-start guide from the structured
//! lessons registry (the paper's "distilled into new sections in the user
//! guide" pipeline).

use crate::{write_json, Gate};
use exa_core::{lessons, render_user_guide};

pub fn run() -> Gate {
    print!("{}", render_user_guide());
    write_json("user_guide_lessons", &lessons());
    Ok(())
}
