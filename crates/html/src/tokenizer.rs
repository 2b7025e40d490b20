//! A practical, error-tolerant HTML tokenizer.
//!
//! This is not the full WHATWG state machine, but it handles everything the
//! reproduction's corpora (and 2006-era data-intensive pages generally)
//! contain: tags with sloppy attributes, comments, doctypes, CDATA,
//! raw-text elements (`script`/`style`), RCDATA elements
//! (`title`/`textarea`), character references, and unterminated constructs
//! at EOF.
//!
//! The scanner makes one pass over the input. A text run is searched for
//! `<` and `&` together, and a quoted attribute value for its quote and
//! `&`, eight bytes at a time; names, whitespace and unquoted values are
//! scanned through a 256-entry byte-class table, a name once, noting its
//! case as it goes, and resolved to an [`Atom`] on the spot. Each token
//! goes straight to a [`Sink`] (the tree builder) as it is scanned:
//! nothing is allocated per token, and a text or value is copied only to
//! decode a character reference in it.

use std::ops::Range;

use crate::atom::{names::*, Atom, Name, Names};
use crate::entities::decode_into;

/// Where the tokenizer hands its tokens. Names are resolved to atoms in
/// [`Sink::names`]; texts and attribute values have their character
/// references decoded.
pub(crate) trait Sink {
    /// The name table tag and attribute names resolve in.
    fn names(&mut self) -> &mut Names;
    fn doctype(&mut self, content: &str);
    fn comment(&mut self, text: &str);
    fn text(&mut self, text: &str);
    fn start_tag(&mut self, tag: &StartTag<'_>);
    /// An end tag. One whose name was never resolved is not reported:
    /// nothing of that name can be open.
    fn end_tag(&mut self, name: Atom);
}

/// A start tag, valid for the duration of [`Sink::start_tag`].
pub(crate) struct StartTag<'t> {
    pub(crate) name: Atom,
    pub(crate) self_closing: bool,
    attrs: &'t [RawAttr],
    input: &'t str,
    decoded: &'t str,
}

impl<'t> StartTag<'t> {
    /// The attributes, in source order, the first of each name winning.
    pub(crate) fn attrs(&self) -> impl Iterator<Item = (Atom, &'t str)> + '_ {
        self.attrs.iter().map(|a| {
            let from = if a.decoded { self.decoded } else { self.input };
            (a.name, &from[a.value.clone()])
        })
    }
}

/// An attribute of the tag being scanned: its value is a range of the
/// input, or of [`Tokenizer::decoded`] when it held a character reference.
struct RawAttr {
    name: Atom,
    value: Range<usize>,
    decoded: bool,
}

// Byte classes.
const WS: u8 = 1;
/// Tag-name bytes: ASCII letters and digits, `-`, `_` and `:`.
const NAME: u8 = 2;
const UPPER: u8 = 4;
const AMP: u8 = 8;
/// Ends an attribute name: whitespace, `=`, `>` and `/`.
const ATTR_NAME_END: u8 = 16;
/// Ends an unquoted attribute value: whitespace and `>`.
const VALUE_END: u8 = 32;

static CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        let mut k = 0;
        if matches!(c, b' ' | b'\t' | b'\n' | b'\r' | b'\x0C') {
            k |= WS | ATTR_NAME_END | VALUE_END;
        }
        if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b':') {
            k |= NAME;
        }
        if c.is_ascii_uppercase() {
            k |= UPPER;
        }
        match c {
            b'&' => k |= AMP,
            b'=' | b'/' => k |= ATTR_NAME_END,
            b'>' => k |= ATTR_NAME_END | VALUE_END,
            _ => {}
        }
        class[b] = k;
        b += 1;
    }
    class
};

fn class(b: u8) -> u8 {
    CLASS[b as usize]
}

/// Offset of the first byte of `bytes` in one of the classes `stop`, or
/// its length.
fn scan(bytes: &[u8], stop: u8) -> usize {
    bytes.iter().position(|&b| class(b) & stop != 0).unwrap_or(bytes.len())
}

/// Offset of the first `a` or `b` in `bytes`, or its length. Texts and
/// quoted values, the long runs, are scanned eight bytes at a time.
fn find2(bytes: &[u8], a: u8, b: u8) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // Bit 7 of each zero byte of `v`: exact for the lowest zero byte,
    // which is the only one read.
    let zeros = |v: u64| v.wrapping_sub(ONES) & !v & (ONES << 7);
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        let hits = zeros(x ^ (ONES * u64::from(a))) | zeros(x ^ (ONES * u64::from(b)));
        if hits != 0 {
            return at + hits.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + chunks.remainder().iter().position(|&c| c == a || c == b).unwrap_or(bytes.len() - at)
}

/// Tokenize `input` into `sink`.
pub(crate) fn tokenize(input: &str, sink: &mut impl Sink) {
    let mut tokenizer = Tokenizer { input, pos: 0, attrs: Vec::new(), decoded: String::new() };
    tokenizer.run(sink);
}

struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// The attributes of the start tag being scanned.
    attrs: Vec<RawAttr>,
    /// Decoded text of the current token: a text run, or the attribute
    /// values of a start tag that held character references.
    decoded: String,
}

impl<'a> Tokenizer<'a> {
    fn run(&mut self, sink: &mut impl Sink) {
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b != b'<' {
                self.text(sink);
                continue;
            }
            match bytes.get(self.pos + 1) {
                Some(b'!') => self.markup_declaration(sink),
                Some(b'/') => self.end_tag(sink),
                Some(c) if c.is_ascii_alphabetic() => self.start_tag(sink),
                _ => {
                    // Lone '<' is text (error tolerance).
                    self.pos += 1;
                    sink.text("<");
                }
            }
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// [`rest`](Self::rest) for scanning: no char-boundary check.
    fn rest_bytes(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let rest = self.rest_bytes();
        self.pos += rest.iter().position(|&b| class(b) & WS == 0).unwrap_or(rest.len());
    }

    /// Consume up to and including the next `>` (or to the end).
    fn skip_past_gt(&mut self) {
        // Most often the `>` is next: skip the search.
        if self.peek() == Some(b'>') {
            self.pos += 1;
            return;
        }
        self.pos = match self.rest().find('>') {
            Some(i) => self.pos + i + 1,
            None => self.input.len(),
        };
    }

    /// Consume `rest()` up to the first `terminator`, and the terminator;
    /// returns what precedes it (everything, when it never comes).
    fn take_until(&mut self, terminator: &str) -> &'a str {
        let hay = self.rest();
        let (content, consumed) = match hay.find(terminator) {
            Some(idx) => (&hay[..idx], idx + terminator.len()),
            None => (hay, hay.len()),
        };
        self.pos += consumed;
        content
    }

    /// A text run, up to the next `<`; its first byte is not `<`.
    fn text(&mut self, sink: &mut impl Sink) {
        let start = self.pos;
        let rest = self.rest();
        let stop = find2(rest.as_bytes(), b'<', b'&');
        if rest.as_bytes().get(stop) != Some(&b'&') {
            self.pos += stop;
            sink.text(&rest[..stop]);
            return;
        }
        let end = rest[stop..].find('<').map_or(rest.len(), |i| stop + i);
        self.pos += end;
        self.decoded.clear();
        decode_into(&self.input[start..self.pos], &mut self.decoded);
        sink.text(&self.decoded);
    }

    fn markup_declaration(&mut self, sink: &mut impl Sink) {
        let rest = self.rest().as_bytes();
        if rest.starts_with(b"<!--") {
            self.pos += 4;
            sink.comment(self.take_until("-->"));
        } else if rest.len() >= 9 && rest[..9].eq_ignore_ascii_case(b"<!DOCTYPE") {
            self.pos += 9;
            sink.doctype(self.take_until(">").trim());
        } else if rest.starts_with(b"<![CDATA[") {
            self.pos += 9;
            sink.text(self.take_until("]]>"));
        } else {
            // Bogus comment: `<!` ... `>`.
            self.pos += 2;
            sink.comment(self.take_until(">"));
        }
    }

    /// The tag name starting at `pos`.
    fn tag_name(&mut self) -> Name<'a> {
        let rest = self.rest_bytes();
        let mut seen = 0;
        let len = rest
            .iter()
            .position(|&b| {
                seen |= class(b);
                class(b) & NAME == 0
            })
            .unwrap_or(rest.len());
        self.pos += len;
        Name::scanned(rest, len, seen & UPPER != 0)
    }

    /// An end tag. A bogus one (`</>`, `</3>`) is skipped, and so are
    /// attributes on end tags.
    fn end_tag(&mut self, sink: &mut impl Sink) {
        self.pos += 2; // "</"
        if !self.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
            self.skip_past_gt();
            return;
        }
        let name = self.tag_name();
        let name = sink.names().find(name);
        self.skip_past_gt();
        if let Some(name) = name {
            sink.end_tag(name);
        }
    }

    fn start_tag(&mut self, sink: &mut impl Sink) {
        self.pos += 1; // '<'
        let name = self.tag_name();
        let name = sink.names().resolve(name);
        self.attrs.clear();
        self.decoded.clear();
        let mut self_closing = false;
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                    // Stray '/': ignore.
                }
                Some(_) => self.attribute(sink.names()),
            }
        }
        sink.start_tag(&StartTag {
            name,
            self_closing,
            attrs: &self.attrs,
            input: self.input,
            decoded: &self.decoded,
        });
        if !self_closing {
            match name {
                SCRIPT => self.raw_text(name, "script", false, sink),
                STYLE => self.raw_text(name, "style", false, sink),
                TITLE => self.raw_text(name, "title", true, sink),
                TEXTAREA => self.raw_text(name, "textarea", true, sink),
                _ => {}
            }
        }
    }

    /// One attribute of a start tag, added to `attrs` unless an earlier
    /// one has its name.
    fn attribute(&mut self, names: &mut Names) {
        let start = self.pos;
        let mut seen = 0;
        let len = self
            .rest_bytes()
            .iter()
            .position(|&b| {
                seen |= class(b);
                class(b) & ATTR_NAME_END != 0
            })
            .unwrap_or(self.input.len() - start);
        if len == 0 {
            // A '=' where a name should start: skip it.
            self.pos += 1;
            return;
        }
        self.pos += len;
        let rest = &self.input.as_bytes()[start..];
        let name = names.resolve(Name::scanned(rest, len, seen & UPPER != 0));
        self.skip_ws();
        let (value, amp) = if self.peek() == Some(b'=') {
            self.pos += 1;
            self.skip_ws();
            self.attribute_value()
        } else {
            (self.pos..self.pos, false)
        };
        if self.attrs.iter().any(|a| a.name == name) {
            return;
        }
        let attr = if amp {
            let from = self.decoded.len();
            decode_into(&self.input[value], &mut self.decoded);
            RawAttr { name, value: from..self.decoded.len(), decoded: true }
        } else {
            RawAttr { name, value, decoded: false }
        };
        self.attrs.push(attr);
    }

    /// The value after `name=`: its range of the input, and whether it
    /// holds a `&`.
    fn attribute_value(&mut self) -> (Range<usize>, bool) {
        let rest = self.rest_bytes();
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                let start = self.pos + 1;
                let body = &rest[1..];
                let stop = find2(body, q, b'&');
                let amp = body.get(stop) == Some(&b'&');
                let len = if amp {
                    body[stop..].iter().position(|&b| b == q).map_or(body.len(), |i| stop + i)
                } else {
                    stop
                };
                // Past the closing quote, when there is one.
                self.pos = start + len + usize::from(len < body.len());
                (start..start + len, amp)
            }
            _ => {
                let start = self.pos;
                let stop = scan(rest, VALUE_END | AMP);
                let amp = rest.get(stop) == Some(&b'&');
                let len = if amp { stop + scan(&rest[stop..], VALUE_END) } else { stop };
                self.pos += len;
                (start..start + len, amp)
            }
        }
    }

    /// The content of a raw-text (`decode` false) or RCDATA element named
    /// `name`, up to `</close` in any case, and that end tag. An
    /// unterminated element takes the rest of the input as its text.
    fn raw_text(&mut self, name: Atom, close: &str, decode: bool, sink: &mut impl Sink) {
        let hay = self.rest();
        let end = find_close(hay, close);
        let text = &hay[..end.unwrap_or(hay.len())];
        self.pos += text.len();
        if !text.is_empty() {
            if decode {
                self.decoded.clear();
                decode_into(text, &mut self.decoded);
                sink.text(&self.decoded);
            } else {
                sink.text(text);
            }
        }
        if end.is_some() {
            self.pos += 2 + close.len();
            self.skip_past_gt();
            sink.end_tag(name);
        }
    }
}

/// Offset of the first `</close` in `hay`, comparing the name
/// case-insensitively, without copying `hay`.
fn find_close(hay: &str, close: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(i) = hay[from..].find("</") {
        let at = from + i;
        let name = &bytes[at + 2..];
        if name.len() >= close.len() && name[..close.len()].eq_ignore_ascii_case(close.as_bytes()) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token as the tests compare it: names spelled out, values owned.
    #[derive(Debug, PartialEq, Eq)]
    enum Token {
        StartTag { name: String, attrs: Vec<(String, String)>, self_closing: bool },
        EndTag { name: String },
        Text(String),
        Comment(String),
        Doctype(String),
    }

    /// A sink that records every token, and for each text and attribute
    /// value whether it was handed over as a slice of the input.
    struct Recorder<'a> {
        input: &'a str,
        names: Names,
        tokens: Vec<Token>,
        borrowed: Vec<bool>,
    }

    impl Recorder<'_> {
        fn note(&mut self, s: &str) {
            let input = self.input.as_bytes().as_ptr_range();
            self.borrowed.push(input.contains(&s.as_ptr()) || s.is_empty());
        }
    }

    impl Sink for Recorder<'_> {
        fn names(&mut self) -> &mut Names {
            &mut self.names
        }

        fn doctype(&mut self, content: &str) {
            self.tokens.push(Token::Doctype(content.into()));
        }

        fn comment(&mut self, text: &str) {
            self.tokens.push(Token::Comment(text.into()));
        }

        fn text(&mut self, text: &str) {
            self.note(text);
            self.tokens.push(Token::Text(text.into()));
        }

        fn start_tag(&mut self, tag: &StartTag<'_>) {
            let mut attrs = Vec::new();
            for (name, value) in tag.attrs() {
                self.note(value);
                attrs.push((self.names.name(name).to_string(), value.to_string()));
            }
            let name = self.names.name(tag.name).to_string();
            self.tokens.push(Token::StartTag { name, attrs, self_closing: tag.self_closing });
        }

        fn end_tag(&mut self, name: Atom) {
            self.tokens.push(Token::EndTag { name: self.names.name(name).into() });
        }
    }

    fn record(input: &str) -> Recorder<'_> {
        let mut recorder =
            Recorder { input, names: Names::default(), tokens: Vec::new(), borrowed: Vec::new() };
        tokenize(input, &mut recorder);
        recorder
    }

    fn run(input: &str) -> Vec<Token> {
        record(input).tokens
    }

    fn start(name: &str, attrs: &[(&str, &str)]) -> Token {
        Token::StartTag {
            name: name.into(),
            attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
            self_closing: false,
        }
    }

    fn end(name: &str) -> Token {
        Token::EndTag { name: name.into() }
    }

    fn text(text: &str) -> Token {
        Token::Text(text.into())
    }

    #[test]
    fn byte_classes() {
        assert_eq!(class(b'a'), NAME);
        assert_eq!(class(b'Z'), NAME | UPPER);
        assert_eq!(class(b'-'), NAME);
        assert_eq!(class(b' '), WS | ATTR_NAME_END | VALUE_END);
        assert_eq!(class(b'>'), ATTR_NAME_END | VALUE_END);
        assert_eq!(class(b'<'), 0);
        assert_eq!(class(b'&'), AMP);
        assert_eq!(class(b'"'), 0);
        assert!((0x80..=0xff).all(|b| class(b) == 0));
    }

    #[test]
    fn find2_finds_the_first_of_two_bytes() {
        let cases: &[(&[u8], usize)] = &[
            (b"", 0),
            (b"abc", 3),
            (b"<", 0),
            (b"abcdefg&", 7),
            (b"abcdefgh<", 8),
            (b"abcdefghijklmno&<", 15),
            (b"\x80\xff\x01<&", 3),
            (b"\x3b\x3c\x25\x26", 1),
            (b"\x00\x01\x00\x3c\x00\x00\x00\x00\x26", 3),
        ];
        for &(bytes, want) in cases {
            assert_eq!(find2(bytes, b'<', b'&'), want, "{bytes:?}");
        }
        // Every position in and across chunks, for either byte.
        for len in 0..24 {
            for at in 0..=len {
                let mut bytes = vec![b'x'; len];
                if at < len {
                    bytes[at] = if at % 2 == 0 { b'"' } else { b'&' };
                }
                assert_eq!(find2(&bytes, b'"', b'&'), at, "{len} {at}");
            }
        }
    }

    #[test]
    fn simple_tags_and_text() {
        assert_eq!(run("<p>Hello</p>"), vec![start("p", &[]), text("Hello"), end("p")]);
    }

    #[test]
    fn attributes_every_style() {
        let toks = run(r#"<a href="x" id='y' checked data-n=3>"#);
        assert_eq!(
            toks,
            vec![start("a", &[("href", "x"), ("id", "y"), ("checked", ""), ("data-n", "3")])]
        );
    }

    #[test]
    fn uppercase_normalised() {
        let toks = run("<TABLE BORDER=1></TABLE>");
        assert_eq!(toks, vec![start("table", &[("border", "1")]), end("table")]);
    }

    #[test]
    fn self_closing() {
        let toks = run("<br/><img src=x />");
        assert_eq!(
            toks,
            vec![
                Token::StartTag { name: "br".into(), attrs: vec![], self_closing: true },
                Token::StartTag {
                    name: "img".into(),
                    attrs: vec![("src".into(), "x".into())],
                    self_closing: true
                },
            ]
        );
    }

    #[test]
    fn comments_doctype_cdata() {
        let toks = run("<!DOCTYPE html><!-- c --><![CDATA[raw <x>]]>");
        assert_eq!(
            toks,
            vec![Token::Doctype("html".into()), Token::Comment(" c ".into()), text("raw <x>")]
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = run(r#"<a title="A&amp;B">x &lt; y</a>"#);
        assert_eq!(toks, vec![start("a", &[("title", "A&B")]), text("x < y"), end("a")]);
        let toks = run("<a b='1&amp;' c=2&lt;3 d=&amp e=\"&\">");
        assert_eq!(toks, vec![start("a", &[("b", "1&"), ("c", "2<3"), ("d", "&"), ("e", "&")])]);
    }

    #[test]
    fn script_is_raw_text() {
        let toks = run("<script>if (a < b && c) { x(\"&amp;\"); }</script><p>t</p>");
        assert_eq!(
            toks,
            vec![
                start("script", &[]),
                text("if (a < b && c) { x(\"&amp;\"); }"),
                end("script"),
                start("p", &[]),
                text("t"),
                end("p"),
            ]
        );
    }

    #[test]
    fn title_is_rcdata() {
        let toks = run("<title>A &amp; B <not a tag></title>");
        assert_eq!(toks, vec![start("title", &[]), text("A & B <not a tag>"), end("title")]);
    }

    #[test]
    fn unterminated_constructs() {
        assert_eq!(run("<p>a<"), vec![start("p", &[]), text("a"), text("<")]);
        assert_eq!(run("<!-- open"), vec![Token::Comment(" open".into())]);
        assert_eq!(run("<script>x"), vec![start("script", &[]), text("x")]);
        assert_eq!(run("<a href="), vec![start("a", &[("href", "")])]);
        assert_eq!(run("<a href=\"x&amp;"), vec![start("a", &[("href", "x&")])]);
    }

    #[test]
    fn stray_lt_is_text() {
        // The lone '<' comes out as its own token; the tree builder merges
        // adjacent text nodes, so the DOM still holds "1 < 2".
        assert_eq!(run("1 < 2"), vec![text("1 "), text("<"), text(" 2")]);
    }

    #[test]
    fn bogus_end_tag_skipped() {
        assert_eq!(run("a</>b"), vec![text("a"), text("b")]);
    }

    #[test]
    fn duplicate_attrs_first_wins() {
        assert_eq!(run(r#"<a id="1" id="2" ID=3>"#), vec![start("a", &[("id", "1")])]);
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let toks = run("<SCRIPT>a</scr + b</Script ><p>");
        assert_eq!(
            toks,
            vec![start("script", &[]), text("a</scr + b"), end("script"), start("p", &[])]
        );
        assert_eq!(run("<style>"), vec![start("style", &[])]);
    }

    #[test]
    fn tokens_borrow_unless_decoded() {
        // Names are atoms, in any case, so only a text or value with a
        // character reference is copied.
        let recorder = record("<DIV class=x id='y&amp;'>plain <X-Y>a &amp; b");
        assert_eq!(
            recorder.tokens,
            vec![
                start("div", &[("class", "x"), ("id", "y&")]),
                text("plain "),
                start("x-y", &[]),
                text("a & b"),
            ]
        );
        assert_eq!(recorder.borrowed, [true, false, true, false]);
    }

    #[test]
    fn end_tags_of_unresolved_names_are_dropped() {
        assert_eq!(run("<x-a></X-A></x-b>"), vec![start("x-a", &[]), end("x-a")]);
    }

    #[test]
    fn many_bogus_end_tags_do_not_recurse() {
        let input = format!("a{}b", "</>".repeat(200_000));
        assert_eq!(run(&input), vec![text("a"), text("b")]);
    }

    #[test]
    fn end_tag_attrs_ignored() {
        assert_eq!(run("</p class=x>"), vec![end("p")]);
    }
}
