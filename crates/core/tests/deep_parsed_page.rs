//! A deeply nested page must go from HTML text to extracted values on a
//! service worker's stack. `deep_page.rs` builds its chain with the DOM
//! API; this test parses the markup, so the tokenizer, the tree builder
//! and the DOM they produce are on the path too.

use retroweb_html::parse;
use retroweb_xpath::parse as xparse;
use retrozilla::{
    extract_page_compiled, ClusterRules, ComponentName, Format, MappingRule, Multiplicity,
    Optionality,
};

const DEPTH: usize = 100_000;

#[test]
fn deep_parsed_page_extracts_on_a_small_stack() {
    let html = format!(
        "<html><body>{}deep{}</body></html>",
        "<div>".repeat(DEPTH),
        "</div>".repeat(DEPTH)
    );
    // The 2 MiB stack spawned threads (and service workers) get by
    // default, independent of `RUST_MIN_STACK`.
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
        let doc = parse(&html);
        let mut cluster = ClusterRules::new("deep", "page");
        cluster.rules.push(MappingRule {
            name: ComponentName::new("innermost").unwrap(),
            optionality: Optionality::Mandatory,
            multiplicity: Multiplicity::SingleValued,
            format: Format::Text,
            locations: vec![xparse("//DIV[not(DIV)]/text()").unwrap()],
            post: vec![],
        });
        let mut failures = Vec::new();
        let values = extract_page_compiled(&cluster.compile(), "u", &doc, &mut failures);
        assert_eq!(values["innermost"], vec!["deep".to_string()]);
        assert!(failures.is_empty(), "{failures:?}");
    });
    worker.unwrap().join().unwrap();
}
