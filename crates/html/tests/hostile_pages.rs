//! Hostile pages must cost time linear in their size and must never
//! overflow a worker's stack.
//!
//! Each input here was superlinear, or aborted the process, in an
//! earlier parser:
//! - every raw-text element (`<script>`, `<style>`, `<title>`) copied and
//!   lowercased the whole rest of the input to find its close tag;
//! - implied and explicit end tags scanned the open-element stack, so
//!   nesting depth made every tag cost O(depth);
//! - the serializer and bogus end tags (`</>`) recursed once per level or
//!   tag;
//! - each attribute of a repeated `<body>` tag was checked against all
//!   the earlier ones.
//!
//! Time bounds are for release builds (`cargo test --release -p
//! retroweb-html --test hostile_pages`); debug builds get a looser bound
//! that a quadratic parser still misses by far.

use std::fmt::Write;
use std::time::{Duration, Instant};

use retroweb_html::{parse, Document, NodeId};

const BUDGET: Duration =
    if cfg!(debug_assertions) { Duration::from_secs(4) } else { Duration::from_secs(1) };

/// Run `f` on a thread with the 2 MiB stack spawned threads (and service
/// workers) get by default, independent of `RUST_MIN_STACK`.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
}

fn parse_within_budget(what: &str, html: &str) -> Document {
    let start = Instant::now();
    let doc = parse(html);
    let took = start.elapsed();
    assert!(took < BUDGET, "{what}: parsing {} bytes took {took:?}", html.len());
    doc
}

/// `<div>` nested `depth` deep around one text node.
fn deep_divs(depth: usize) -> String {
    let mut html = String::with_capacity(depth * 11 + 64);
    html.push_str("<html><body>");
    html.push_str(&"<div>".repeat(depth));
    html.push_str("deep");
    html.push_str(&"</div>".repeat(depth));
    html.push_str("</body></html>");
    html
}

#[test]
fn many_script_blocks_parse_in_linear_time() {
    let block = "<script>var x = 1; if (a < b) { f(\"</scr\" + \"ipt>\"); }</SCRIPT><p>t</p>";
    let html = block.repeat(20_000);
    let doc = parse_within_budget("20k script blocks", &html);
    assert_eq!(doc.elements_by_tag("script").len(), 20_000);
    assert_eq!(doc.elements_by_tag("p").len(), 20_000);
    let script = doc.elements_by_tag("script")[19_999];
    assert_eq!(doc.text_content(script), "var x = 1; if (a < b) { f(\"</scr\" + \"ipt>\"); }");
}

#[test]
fn deep_nesting_parses_in_linear_time() {
    const DEPTH: usize = 100_000;
    let doc = parse_within_budget("100k-deep divs", &deep_divs(DEPTH));
    let body = doc.body().unwrap();
    let mut deepest = body;
    let mut levels = 0;
    while let Some(child) = doc.first_child(deepest).filter(|&c| doc.is_element(c)) {
        deepest = child;
        levels += 1;
    }
    assert_eq!(levels, DEPTH);
    assert_eq!(doc.text_content(body), "deep");
}

#[test]
fn end_tags_blocked_by_a_scope_stay_cheap() {
    // A cell is open under a nested table, below a deep run of inline
    // elements. Every `<tr>` implies closing that cell, but the nested
    // table is a scope boundary, so nothing closes: the builder must
    // learn that without walking the run each time.
    const N: usize = 50_000;
    let mut html = String::from("<table><tr><td><table>");
    html.push_str(&"<span>".repeat(N));
    html.push_str(&"<tr>x".repeat(N));
    let doc = parse_within_budget("scope-blocked implied end tags", &html);
    assert_eq!(doc.elements_by_tag("tr").len(), N + 1);
    assert_eq!(doc.elements_by_tag("span").len(), N);
}

#[test]
fn repeated_body_tags_parse_in_linear_time() {
    // Every `<body>` start tag merges its attributes into the one body
    // element, between text that joins into one node or between elements
    // with attributes of their own.
    const N: usize = 100_000;
    let mut between_text = String::new();
    let mut between_elements = String::new();
    for i in 0..N {
        let _ = write!(between_text, "x<body a{i}=1>");
        let _ = write!(between_elements, "<body a{i}=1><i c=1>");
    }

    let doc = parse_within_budget("body tags between text", &between_text);
    let body = doc.body().unwrap();
    assert_eq!(doc.element(body).unwrap().attrs.len(), N);
    assert_eq!(doc.attr(body, &format!("a{}", N - 1)), Some("1"));
    assert_eq!(doc.children(body).count(), 1);
    assert_eq!(doc.text_content(body), "x".repeat(N));

    let doc = parse_within_budget("body tags between elements", &between_elements);
    let body = doc.body().unwrap();
    assert_eq!(doc.element(body).unwrap().attrs.len(), N);
    let italics = doc.elements_by_tag("i");
    assert_eq!(italics.len(), N);
    assert!(italics.iter().all(|&i| doc.attr(i, "c") == Some("1")));
}

#[test]
fn many_bogus_end_tags_stay_on_the_stack() {
    on_small_stack(|| {
        let html = format!("<p>a{}b</p>", "</>".repeat(1_000_000));
        let doc = parse_within_budget("1M bogus end tags", &html);
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.text_content(p), "ab");
    });
}

#[test]
fn deep_page_serializes_and_drops_on_a_small_stack() {
    on_small_stack(|| {
        const DEPTH: usize = 100_000;
        let html = deep_divs(DEPTH);
        let doc = parse(&html);
        let out = doc.to_html();
        assert_eq!(out, format!("<html><head></head>{}", &html["<html>".len()..]));
        let body = doc.body().unwrap();
        let div: NodeId = doc.first_child(body).unwrap();
        assert_eq!(doc.outer_html(div).len(), DEPTH * 11 + "deep".len());
        let copy = doc.clone();
        drop(doc);
        assert_eq!(copy.descendants(Document::ROOT).count(), DEPTH + 4);
    });
}
