//! An interactive query shell over a corpus-loaded article database.
//!
//! ```sh
//! cargo run --example query_shell
//! docql> select t from my_article PATH_p.title(t)
//! docql> .check select x from Articles PATH_p.nonexistent(x)
//! docql> .mode algebraic
//! docql> .quit
//! ```
//!
//! Commands: `.mode interpret|algebraic`, `.semantics restricted|liberal`,
//! `.check <query>` (static typing report), `.schema`, `.help`, `.quit`.

use docql::o2sql::Mode;
use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use std::io::{BufRead, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"])?;
    for seed in 0..5u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: 2,
            ..ArticleParams::default()
        });
        db.ingest_document(&doc)?;
    }
    let first = db.documents()[0];
    db.bind("my_article", first)?;
    println!(
        "docql shell — {} articles loaded; roots: Articles, my_article.",
        db.documents().len()
    );
    println!("Type a query, `.help` for commands, `.quit` to exit.");

    let mut mode = Mode::Interpret;
    let mut semantics = PathSemantics::Restricted;
    let stdin = std::io::stdin();
    loop {
        print!("docql> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(
                    ".mode interpret|algebraic   switch evaluation strategy\n\
                     .semantics restricted|liberal   path-variable semantics\n\
                     .check <query>              static type report\n\
                     explain analyze <query>     run with per-phase/per-operator timing\n\
                     .schema                     print the generated classes\n\
                     .quit                       leave"
                );
                continue;
            }
            ".schema" => {
                println!("{}", db.mapping().schema);
                continue;
            }
            ".mode interpret" => {
                mode = Mode::Interpret;
                println!("mode: interpreter");
                continue;
            }
            ".mode algebraic" => {
                mode = Mode::Algebraic;
                println!("mode: algebraic (§5.4)");
                continue;
            }
            ".semantics restricted" => {
                semantics = PathSemantics::Restricted;
                println!("semantics: restricted");
                continue;
            }
            ".semantics liberal" => {
                semantics = PathSemantics::Liberal;
                println!("semantics: liberal");
                continue;
            }
            _ => {}
        }
        if let Some(q) = line.strip_prefix(".explain ") {
            match db.engine().explain(q) {
                Ok(text) => println!("{text}"),
                Err(e) => println!("  {e}"),
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(".check ") {
            match db.engine().check(q) {
                Ok(info) => {
                    for (v, ty) in &info.var_types {
                        println!("  v{v} : {ty}");
                    }
                    if info.errors.is_empty() {
                        println!("  no type errors");
                    }
                    for e in &info.errors {
                        println!("  type error: {e}");
                    }
                }
                Err(e) => println!("  {e}"),
            }
            continue;
        }
        // Restricted semantics run through the store's plan-cached query
        // path, which also answers `explain analyze <query>` with a one-row
        // report; liberal semantics need an engine configured by hand.
        let result = if semantics == PathSemantics::Restricted {
            db.query_traced(line, mode, &QueryLimits::none()).0
        } else {
            let mut engine = db.engine();
            engine.mode = mode;
            engine.semantics = semantics;
            engine.run(line).map_err(Into::into)
        };
        match result {
            Ok(result) if result.columns == ["explain analyze"] => {
                if let [CalcValue::Data(Value::Str(report))] = result.values().as_slice() {
                    println!("{report}");
                }
            }
            Ok(result) => {
                print!("{}", result.to_table());
                println!("({} rows)", result.len());
            }
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
