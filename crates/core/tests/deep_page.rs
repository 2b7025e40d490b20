//! Nesting depth must never abort the process. A page nested deeper
//! than a thread's stack can recurse through used to overflow it in the
//! string-value walk; a stack overflow cannot be caught, so one hostile
//! page took the whole server down.

use retroweb_html::{Document, NodeId};
use retroweb_xpath::parse as xparse;
use retrozilla::{
    extract_page_compiled, ClusterRules, ComponentName, Format, MappingRule, Multiplicity,
    Optionality,
};

const DEPTH: usize = 100_000;

/// `<html><body><div>…<div>deep</div>…</div></body></html>` with
/// `depth` nested `<div>`s. Built bottom-up with the DOM API rather
/// than the parser, so each append is O(1) even in debug builds.
fn deep_chain(depth: usize) -> (Document, NodeId) {
    let mut doc = Document::new();
    let mut inner = doc.create_text("deep");
    for _ in 0..depth {
        let div = doc.create_element("div");
        doc.append_child(div, inner);
        inner = div;
    }
    let body = doc.create_element("body");
    doc.append_child(body, inner);
    let html = doc.create_element("html");
    doc.append_child(html, body);
    doc.append_child(Document::ROOT, html);
    (doc, body)
}

/// Run `f` on a thread with the default 2 MiB stack of spawned threads
/// (the size service workers get), independent of `RUST_MIN_STACK`.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
}

#[test]
fn deep_page_string_value_and_extraction_stay_on_the_stack() {
    on_small_stack(|| {
        let (doc, body) = deep_chain(DEPTH);
        assert_eq!(doc.text_content(body), "deep");

        let mut cluster = ClusterRules::new("deep", "page");
        cluster.rules.push(MappingRule {
            name: ComponentName::new("body").unwrap(),
            optionality: Optionality::Mandatory,
            multiplicity: Multiplicity::SingleValued,
            format: Format::Text,
            locations: vec![xparse("//BODY[normalize-space(.) != \"\"]").unwrap()],
            post: vec![],
        });
        let mut failures = Vec::new();
        let values = extract_page_compiled(&cluster.compile(), "u", &doc, &mut failures);
        assert_eq!(values["body"], vec!["deep".to_string()]);
        assert!(failures.is_empty(), "{failures:?}");
    });
}
