//! Allocation budget of `parse()`: a document is a handful of buffers,
//! not a few heap objects per node.
//!
//! A counting global allocator (per thread, so the harness's other
//! threads do not disturb the count) records every allocation and
//! reallocation made while parsing. A typical ~25 KB detail page wrapped
//! in site chrome, with about a thousand nodes, must parse in at most 64
//! of them, and a page ten times larger in at most 32 more: the arenas
//! grow geometrically, so size adds only a few regrowths. The same holds
//! for the page in the paper's uppercase markup (`<TABLE BORDER=1>`):
//! names resolve in any case without a lowercase copy. The allocator
//! also tracks live bytes, so the memory a parse holds at its peak is
//! bounded by a multiple of the input, whatever the markup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

use retroweb_html::parse;
use retroweb_sitegen::{movie, products, Layout as SiteLayout, MovieSiteSpec, ProductSiteSpec};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread, and its maximum.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(grown: usize, freed: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    resize(grown, freed);
}

fn resize(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown as isize - freed as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by parsing `html` (the document's drop excluded).
fn parse_allocations(html: &str) -> (usize, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let doc = parse(html);
    let made = ALLOCATIONS.with(Cell::get) - before;
    (made, doc.len())
}

/// Peak bytes held while parsing `html`, the finished document included.
fn parse_peak_bytes(html: &str) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let doc = parse(html);
    let peak = PEAK.with(Cell::get) - before;
    drop(doc);
    peak as usize
}

/// Wrap a generated page in site chrome up to `target` bytes: a
/// navigation list, the page body inside `nesting` layout tables, related
/// stories and a footer.
fn with_chrome(html: &str, target: usize, nesting: usize) -> String {
    let body_start = html.find("<body>").expect("body") + "<body>".len();
    let body_end = html.rfind("</body>").expect("body end");
    let mut out = String::with_capacity(target + 4096);
    out.push_str(&html[..body_start]);
    out.push_str("\n<div id=\"site-nav\"><ul class=\"nav\">");
    for i in 0..24 {
        let _ = write!(out, "<li><a href=\"/section/{i}\">Section {i} lorem</a></li>");
    }
    out.push_str("</ul></div>\n");
    out.push_str(&"<table class=\"layout\"><tr><td class=\"col\">".repeat(nesting));
    out.push_str(&html[body_start..body_end]);
    out.push_str(&"</td></tr></table>".repeat(nesting));
    out.push_str("\n<div id=\"related\"><h4>Related</h4>\n");
    let mut item = 0;
    while out.len() + 400 < target {
        let _ = writeln!(
            out,
            "<div class=\"rel\"><a href=\"/story/{item}\">Story {item}: ipsum dolor sit</a>\
             <span class=\"blurb\">amet consectetur adipiscing elit sed do eiusmod tempor \
             incididunt</span></div>"
        );
        item += 1;
    }
    out.push_str("</div>\n<div id=\"site-footer\"><ul>");
    for i in 0..8 {
        let _ = write!(out, "<li><a href=\"/about/{i}\">About us</a></li>");
    }
    out.push_str("</ul></div>\n");
    out.push_str(&html[body_end..]);
    out
}

/// `html` with every tag and attribute name uppercased, as in the
/// paper's figures (`<TABLE BORDER=1><TR><TD>`); quoted values and text
/// keep their case.
fn uppercase_names(html: &str) -> String {
    let (mut in_tag, mut quote) = (false, None);
    html.chars()
        .map(|c| {
            match (in_tag, quote, c) {
                (true, Some(q), _) if c == q => quote = None,
                (true, None, '"' | '\'') => quote = Some(c),
                (true, None, '>') => in_tag = false,
                (false, _, '<') => in_tag = true,
                _ => {}
            }
            if in_tag && quote.is_none() {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

#[test]
fn parse_allocates_a_few_buffers_per_document() {
    let movie = movie::generate(&MovieSiteSpec {
        n_pages: 1,
        seed: 3,
        layout: SiteLayout::Rows,
        ..Default::default()
    });
    let shop = products::generate(&ProductSiteSpec { n_pages: 1, seed: 3, ..Default::default() });
    let (movie, shop) = (&movie.pages[0].html, &shop.pages[0].html);
    let pages: [(&str, &dyn Fn(usize) -> String); 3] = [
        ("movie", &|target| with_chrome(movie, target, 3)),
        ("product", &|target| with_chrome(shop, target, 3)),
        ("uppercase movie", &|target| uppercase_names(&with_chrome(movie, target, 3))),
    ];
    for (what, page) in pages {
        let typical = page(25_000);
        let large = page(250_000);
        let (small_allocs, small_nodes) = parse_allocations(&typical);
        let (large_allocs, large_nodes) = parse_allocations(&large);
        println!(
            "{what}: {} bytes, {small_nodes} nodes: {small_allocs} allocations; \
             {} bytes, {large_nodes} nodes: {large_allocs} allocations",
            typical.len(),
            large.len()
        );
        assert!(small_nodes > 800, "the typical page should be realistic: {small_nodes} nodes");
        assert!(small_allocs <= 64, "{what}: {small_allocs} allocations for a ~25 KB page");
        assert!(
            large_allocs <= small_allocs + 32,
            "{large_allocs} allocations for a 10x page vs {small_allocs}"
        );
    }
}

#[test]
fn parse_memory_is_linear_in_the_input() {
    // Each `<body>` tag merges its attributes into the one body element,
    // between text that joins into one node or between elements with
    // attributes of their own. Neither may make an arena copy what it
    // already holds.
    const N: usize = 3_000;
    let mut between_text = String::new();
    let mut between_elements = String::new();
    for i in 0..N {
        let _ = write!(between_text, "x<body a{i}=1>");
        let _ = write!(between_elements, "<body a{i}=1><i c=1>");
    }
    let page = movie::generate(&MovieSiteSpec { n_pages: 1, seed: 3, ..Default::default() });
    let typical = with_chrome(&page.pages[0].html, 25_000, 3);
    for (what, html) in [
        ("typical page", &typical),
        ("body tags between text", &between_text),
        ("body tags between elements", &between_elements),
    ] {
        let peak = parse_peak_bytes(html);
        println!("{what}: {} bytes in, peak {peak} bytes held", html.len());
        assert!(peak <= 32 * html.len(), "{what}: {peak} bytes held for {} bytes", html.len());
    }
}
