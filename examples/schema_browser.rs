//! Querying the *schema* through paths: the paper's claim that paths let
//! users "query data (and to some extent schema) without exact knowledge of
//! the schema".
//!
//! Shows the Fig. 1 → Fig. 3 mapping, the finite abstract-path space of the
//! restricted semantics, and static typing of a path query (§5.3).
//!
//! ```sh
//! cargo run --example schema_browser
//! ```

use docql::model::Type;
use docql::paths::{schema_paths, SchemaPathOptions};
use docql::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = DocStore::new(docql::fixtures::ARTICLE_DTD, &[])?;
    let mapping = db.mapping();

    println!("=== Fig. 1 DTD → Fig. 3 classes ===");
    println!("{}", mapping.schema);

    // The abstract path space from an Article under the restricted
    // semantics — finite because no class may be dereferenced twice on one
    // path (§5.2).
    let opts = SchemaPathOptions::default();
    let paths = schema_paths(&mapping.schema, &Type::class("Article"), &opts);
    println!(
        "=== Abstract paths from Article (restricted semantics): {} ===",
        paths.len()
    );
    for p in paths.iter().take(15) {
        println!("  {p}");
    }
    println!("  …");

    // Ways to reach a `title` — the candidate valuations the §5.4
    // algebraizer would substitute for `PATH_p` in `Article PATH_p.title`.
    let title_paths = docql::paths::paths_ending_with_attr(
        &mapping.schema,
        &Type::class("Article"),
        sym("title"),
        &opts,
    );
    println!(
        "\n=== Candidate paths ending with .title: {} ===",
        title_paths.len()
    );
    for p in &title_paths {
        println!("  {p}");
    }

    // Static typing of a path query (§5.3): what type does `x` get in
    // `Articles PATH_p (x) .title`? A marked union over everything titled.
    let engine = db.engine();
    let info = engine.check("select x from Articles PATH_p(x).title")?;
    println!("\n=== Inferred variable types for `Articles PATH_p(x).title` ===");
    for (var, ty) in &info.var_types {
        println!("  v{var} : {ty}");
    }
    if !info.errors.is_empty() {
        println!("  type errors: {:?}", info.errors);
    }
    Ok(())
}
