//! Golden DOM digest: `parse()` must build the same trees it always has.
//!
//! Every corpus below is parsed and dumped through the public accessors
//! only (tag names, attributes in order, texts, comments, doctypes, child
//! structure and `len()`); the FNV-1a hash of the dump is pinned. A
//! change to the parser's internals that alters any DOM it builds, even
//! by one byte of one text node, changes the digest.

use retroweb_html::{parse, Document};
use retroweb_sitegen::{
    movie, news, paper, products, Layout, MovieSiteSpec, NewsSiteSpec, ProductSiteSpec,
};

/// Digest of [`corpus`] dumped by [`dump`], recorded with the parser as
/// it stood before its buffers moved into per-document arenas.
const GOLDEN: u64 = 0x5bc8_5230_3e33_b584;

/// The inputs of `edge_cases.rs`, plus markup the generated sites never
/// contain: uppercase names, unknown tags and attributes, entities in
/// every position, raw-text close tags in any case, unterminated
/// constructs and mutation-free tag soup.
const HAND_WRITTEN: &[&str] = &[
    "<body><textarea><p>not a tag</p> &amp; x</textarea></body>",
    "<body><p><![CDATA[a < b & c]]></p></body>",
    "<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>",
    "<table><!-- layout --><tr><td>x</td></tr></table>",
    "<body><center><font size=\"2\">old web</font></center></body>",
    "<table><colgroup><col><col></colgroup><tr><td>x</td></tr></table>",
    "<div><b>bold <i>both</div><p>after</p>",
    "<div><table><tr><td><b>deep",
    "   \n\t  ",
    "<p>x</p><title>late</title>",
    "<a href=\"x?a=1&#38;b=2\">l</a>",
    "<!DOCTYPE html><!-- c --><html><head><title>t</title></head><body>x<br>y</body></html>",
    "<body><div id=\"old\"><p>content</p></div></body>",
    "<body><ul><li>a</li><li>b</li><li>c</li></ul></body>",
    "<!DOCTYPE html><html><body></body></html>",
    "<html><head></head><body><script>for (i=0; i<10; i++) a&&b;</script></body></html>",
    "<HTML><HEAD><TITLE>Up &amp; Down</TITLE></HEAD><BODY BGCOLOR=white>\
     <TABLE BORDER=1><TR><TD>a<TD>b</TABLE></BODY></HTML>",
    "<BODY><TR></TR><TR><TD><B>Runtime:</B> 108 min <BR><B>Country:</B> USA/UK <BR></TD></TR></BODY>",
    "<body><x-widget data-Role=\"Main\" Aria-Label='lbl'>w</x-widget><Custom-Tag>c</Custom-Tag></body>",
    "<p title=\"A&amp;B\" title=\"dup\" data-v=3 checked>a&lt;b &copy; &#x41;&#66 &bogus; R&D</p>",
    "<script>if (a < b) { x = \"</scr\" + \"ipt>\"; }</SCRIPT><style>p { color: red }</StYlE>",
    "<title>T1</title><TITLE>T2</TITLE><textarea>1 &lt; 2</TEXTAREA>",
    "<script>never closed <p>",
    "<p>1 < 2 <3 a</> b</3> c</p class=x>",
    "<!-- open comment",
    "<!DOCTYPE html PUBLIC \"-//W3C//DTD HTML 4.01//EN\"><html><body>d</body></html>",
    "<!bogus comment><?pi x?><p>after</p>",
    "<ul><li>one<li>two</ul><dl><dt>t<dd>d<dt>t2</dl><select><option>a<optgroup><option>b</select>",
    "<table><thead><tr><th>h</thead><tbody><tr><td>1<tr><td>2</tbody><tfoot><tr><td>f</table>",
    "<p>a<div>b</div><p>c<h1>d</h1><p>e<table><tr><td><p>f<p>g</table>",
    "<head><meta charset=utf-8><link rel=x><base href=/></head><body><img src=a alt=\"\"><hr/></body>",
    "<html lang=en><head id=h></head><body class=a><body class=b id=c><html dir=ltr>t</html>",
    "text before<html>a</head>b</body>c</html>d",
    "<a href=/x>one</a><a href=/y class=\"q\">two</a><span \"stray=1 x=y/>z</span>",
    "caf&eacute; &mdash; &nbsp; &hellip; &euro;&#8212;&#xD800;",
];

fn corpus() -> Vec<String> {
    let mut pages = Vec::new();
    for layout in [Layout::Rows, Layout::Flat] {
        for (seed, wrapper_depth) in [(7, 0), (11, 3)] {
            let spec =
                MovieSiteSpec { n_pages: 12, seed, layout, wrapper_depth, ..Default::default() };
            pages.extend(movie::generate(&spec).pages.into_iter().map(|p| p.html));
        }
    }
    let unlabeled = MovieSiteSpec {
        n_pages: 6,
        seed: 5,
        layout: Layout::Flat,
        labeled: false,
        ..Default::default()
    };
    pages.extend(movie::generate(&unlabeled).pages.into_iter().map(|p| p.html));
    let news = news::generate(&NewsSiteSpec { n_pages: 12, seed: 3, ..Default::default() });
    pages.extend(news.pages.into_iter().map(|p| p.html));
    let shop = products::generate(&ProductSiteSpec { n_pages: 12, seed: 9, ..Default::default() });
    pages.extend(shop.pages.into_iter().map(|p| p.html));
    pages.extend(paper::paper_working_sample().into_iter().map(|p| p.html));
    pages.extend(HAND_WRITTEN.iter().map(|s| s.to_string()));
    pages
}

/// Canonical dump: one line per node in document order, prefixed by its
/// depth, then the arena length.
fn dump(doc: &Document, out: &mut String) {
    use std::fmt::Write;
    for id in doc.descendants_and_self(Document::ROOT) {
        let depth = doc.ancestors(id).count();
        if let Some(el) = doc.element(id) {
            let _ = write!(out, "{depth} <{}", el.name);
            for a in &el.attrs {
                let _ = write!(out, " {}={:?}", a.name, a.value);
            }
            out.push('\n');
        } else if let Some(t) = doc.text(id) {
            let _ = writeln!(out, "{depth} text {t:?}");
        } else if let Some(c) = doc.comment(id) {
            let _ = writeln!(out, "{depth} comment {c:?}");
        } else if let Some(d) = doc.doctype(id) {
            let _ = writeln!(out, "{depth} doctype {d:?}");
        } else {
            let _ = writeln!(out, "{depth} document");
        }
    }
    let _ = writeln!(out, "len {}", doc.len());
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn parsed_doms_match_the_golden_digest() {
    let mut out = String::new();
    let pages = corpus();
    for html in &pages {
        dump(&parse(html), &mut out);
    }
    let digest = fnv1a(out.as_bytes());
    assert_eq!(
        digest,
        GOLDEN,
        "DOM digest changed over {} pages ({} dump bytes): got {digest:#x}",
        pages.len(),
        out.len()
    );
}
