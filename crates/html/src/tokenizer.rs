//! A practical, error-tolerant HTML tokenizer.
//!
//! This is not the full WHATWG state machine, but it handles everything the
//! reproduction's corpora (and 2006-era data-intensive pages generally)
//! contain: tags with sloppy attributes, comments, doctypes, CDATA,
//! raw-text elements (`script`/`style`), RCDATA elements
//! (`title`/`textarea`), character references, and unterminated constructs
//! at EOF.
//!
//! Tokens borrow from the input. Only text with character references and
//! names with uppercase letters are copied (see [`Token`]).

use std::borrow::Cow;

use crate::atom::lowercase;
use crate::entities::decode_cow;

/// One lexical token, borrowing from the input. Names are lowercase and
/// texts and attribute values have their character references decoded;
/// either costs a copy only when it changes the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    StartTag { name: Cow<'a, str>, attrs: Vec<Attribute<'a>>, self_closing: bool },
    EndTag { name: Cow<'a, str> },
    Text(Cow<'a, str>),
    Comment(&'a str),
    Doctype(&'a str),
}

/// A start tag's `(name, value)` pair.
pub type Attribute<'a> = (Cow<'a, str>, Cow<'a, str>);

/// Content model the tokenizer is currently in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Data,
    /// Text until `</close` (case-insensitive). Entities are decoded in
    /// RCDATA (title, textarea) but not in raw text (script, style).
    Raw {
        close: &'static str,
        decode: bool,
    },
}

pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    mode: Mode,
}

impl<'a> Tokenizer<'a> {
    pub fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer { input, pos: 0, mode: Mode::Data }
    }

    /// Tokenize the whole input.
    pub fn run(input: &str) -> Vec<Token<'_>> {
        Tokenizer::new(input).collect()
    }

    /// The next token. A start tag's attributes go to `attrs` (cleared
    /// first) rather than into the token, so a caller that reuses one
    /// vector tokenizes without allocating per tag.
    pub(crate) fn next_into(&mut self, attrs: &mut Vec<Attribute<'a>>) -> Option<Token<'a>> {
        attrs.clear();
        loop {
            let token = match self.mode {
                Mode::Data => self.next_data(attrs),
                Mode::Raw { close, decode } => self.next_raw(close, decode),
            };
            // `None` with input left is a skipped bogus end tag.
            if token.is_some() || self.pos >= self.input.len() {
                return token;
            }
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with_ci(&self, prefix: &str) -> bool {
        let rest = self.rest().as_bytes();
        rest.len() >= prefix.len() && rest[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r' | b'\x0C')) {
            self.pos += 1;
        }
    }

    /// Consume up to and including the next `>` (or to the end).
    fn skip_past_gt(&mut self) {
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

    // ---- content-model scanners ---------------------------------------------

    fn next_raw(&mut self, close: &'static str, decode: bool) -> Option<Token<'a>> {
        let hay = self.rest();
        let end = find_close(hay, close);
        if end == Some(0) {
            // Directly at the close tag: consume it (attributes on end tags
            // are ignored) and leave raw mode.
            self.mode = Mode::Data;
            self.pos += 2 + close.len();
            self.skip_past_gt();
            return Some(Token::EndTag { name: Cow::Borrowed(close) });
        }
        // Unterminated raw element: the rest is text.
        let text = match end {
            Some(idx) => &hay[..idx],
            None => {
                self.mode = Mode::Data;
                hay
            }
        };
        if text.is_empty() {
            return None;
        }
        self.pos += text.len();
        Some(Token::Text(if decode { decode_cow(text) } else { Cow::Borrowed(text) }))
    }

    fn next_data(&mut self, attrs: &mut Vec<Attribute<'a>>) -> Option<Token<'a>> {
        if self.pos >= self.input.len() {
            return None;
        }
        if self.peek() != Some(b'<') {
            // Text run until next '<'.
            let start = self.pos;
            self.pos = self.rest().find('<').map_or(self.input.len(), |i| self.pos + i);
            return Some(Token::Text(decode_cow(&self.input[start..self.pos])));
        }
        // self.peek() == '<'
        let after = self.bytes().get(self.pos + 1).copied();
        match after {
            Some(b'!') => Some(self.markup_declaration()),
            Some(b'/') => self.end_tag(),
            Some(c) if c.is_ascii_alphabetic() => Some(self.start_tag(attrs)),
            _ => {
                // Lone '<' is text (error tolerance).
                self.pos += 1;
                Some(Token::Text(Cow::Borrowed("<")))
            }
        }
    }

    fn markup_declaration(&mut self) -> Token<'a> {
        if self.rest().starts_with("<!--") {
            self.pos += 4;
            return Token::Comment(self.take_until("-->"));
        }
        if self.starts_with_ci("<!DOCTYPE") {
            self.pos += "<!DOCTYPE".len();
            return Token::Doctype(self.take_until(">").trim());
        }
        if self.rest().starts_with("<![CDATA[") {
            self.pos += "<![CDATA[".len();
            return Token::Text(Cow::Borrowed(self.take_until("]]>")));
        }
        // Bogus comment: `<!` ... `>`.
        self.pos += 2;
        Token::Comment(self.take_until(">"))
    }

    /// An end tag, or `None` for a bogus one (`</>`, `</3>`), which is
    /// skipped.
    fn end_tag(&mut self) -> Option<Token<'a>> {
        self.pos += 2; // "</"
        if !matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.skip_past_gt();
            return None;
        }
        let name = self.tag_name();
        // Ignore anything up to '>' (attributes on end tags are invalid).
        self.skip_past_gt();
        Some(Token::EndTag { name })
    }

    fn start_tag(&mut self, attrs: &mut Vec<Attribute<'a>>) -> Token<'a> {
        self.pos += 1; // '<'
        let name = self.tag_name();
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
                Some(_) => {
                    if let Some((k, v)) = self.attribute() {
                        if !attrs.iter().any(|(n, _)| *n == k) {
                            attrs.push((k, v));
                        }
                    }
                }
            }
        }
        if !self_closing {
            self.mode = match &*name {
                "script" => Mode::Raw { close: "script", decode: false },
                "style" => Mode::Raw { close: "style", decode: false },
                "title" => Mode::Raw { close: "title", decode: true },
                "textarea" => Mode::Raw { close: "textarea", decode: true },
                _ => self.mode,
            };
        }
        Token::StartTag { name, attrs: Vec::new(), self_closing }
    }

    fn tag_name(&mut self) -> Cow<'a, str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        lowercase(&self.input[start..self.pos])
    }

    fn attribute(&mut self) -> Option<Attribute<'a>> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | b'\x0C' | b'=' | b'>' | b'/' => break,
                _ => self.pos += 1,
            }
        }
        if self.pos == start {
            // Unparseable byte (e.g. a stray quote): skip it.
            self.pos += 1;
            return None;
        }
        let name = lowercase(&self.input[start..self.pos]);
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Some((name, Cow::Borrowed("")));
        }
        self.pos += 1;
        self.skip_ws();
        let raw = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let vstart = self.pos;
                self.pos = self.bytes()[vstart..]
                    .iter()
                    .position(|&b| b == q)
                    .map_or(self.input.len(), |i| vstart + i);
                let raw = &self.input[vstart..self.pos];
                if self.peek() == Some(q) {
                    self.pos += 1;
                }
                raw
            }
            _ => {
                let vstart = self.pos;
                while let Some(b) = self.peek() {
                    match b {
                        b' ' | b'\t' | b'\n' | b'\r' | b'\x0C' | b'>' => break,
                        _ => self.pos += 1,
                    }
                }
                &self.input[vstart..self.pos]
            }
        };
        Some((name, decode_cow(raw)))
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

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let mut attrs = Vec::new();
        let mut token = self.next_into(&mut attrs)?;
        if let Token::StartTag { attrs: slot, .. } = &mut token {
            *slot = attrs;
        }
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &'static str, attrs: &[(&'static str, &'static str)]) -> Token<'static> {
        Token::StartTag {
            name: name.into(),
            attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_tags_and_text() {
        let toks = Tokenizer::run("<p>Hello</p>");
        assert_eq!(
            toks,
            vec![start("p", &[]), Token::Text("Hello".into()), Token::EndTag { name: "p".into() }]
        );
    }

    #[test]
    fn attributes_every_style() {
        let toks = Tokenizer::run(r#"<a href="x" id='y' checked data-n=3>"#);
        assert_eq!(
            toks,
            vec![start("a", &[("href", "x"), ("id", "y"), ("checked", ""), ("data-n", "3")])]
        );
    }

    #[test]
    fn uppercase_normalised() {
        let toks = Tokenizer::run("<TABLE BORDER=1></TABLE>");
        assert_eq!(
            toks,
            vec![start("table", &[("border", "1")]), Token::EndTag { name: "table".into() }]
        );
    }

    #[test]
    fn self_closing() {
        let toks = Tokenizer::run("<br/><img src=x />");
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
        let toks = Tokenizer::run("<!DOCTYPE html><!-- c --><![CDATA[raw <x>]]>");
        assert_eq!(
            toks,
            vec![Token::Doctype("html"), Token::Comment(" c "), Token::Text("raw <x>".into()),]
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = Tokenizer::run(r#"<a title="A&amp;B">x &lt; y</a>"#);
        assert_eq!(
            toks,
            vec![
                start("a", &[("title", "A&B")]),
                Token::Text("x < y".into()),
                Token::EndTag { name: "a".into() },
            ]
        );
    }

    #[test]
    fn script_is_raw_text() {
        let toks = Tokenizer::run("<script>if (a < b && c) { x(\"&amp;\"); }</script><p>t</p>");
        assert_eq!(
            toks,
            vec![
                start("script", &[]),
                Token::Text("if (a < b && c) { x(\"&amp;\"); }".into()),
                Token::EndTag { name: "script".into() },
                start("p", &[]),
                Token::Text("t".into()),
                Token::EndTag { name: "p".into() },
            ]
        );
    }

    #[test]
    fn title_is_rcdata() {
        let toks = Tokenizer::run("<title>A &amp; B <not a tag></title>");
        assert_eq!(
            toks,
            vec![
                start("title", &[]),
                Token::Text("A & B <not a tag>".into()),
                Token::EndTag { name: "title".into() },
            ]
        );
    }

    #[test]
    fn unterminated_constructs() {
        assert_eq!(
            Tokenizer::run("<p>a<"),
            vec![start("p", &[]), Token::Text("a".into()), Token::Text("<".into())]
        );
        assert_eq!(Tokenizer::run("<!-- open"), vec![Token::Comment(" open")]);
        assert_eq!(
            Tokenizer::run("<script>x"),
            vec![start("script", &[]), Token::Text("x".into())]
        );
        assert_eq!(Tokenizer::run("<a href="), vec![start("a", &[("href", "")])]);
    }

    #[test]
    fn stray_lt_is_text() {
        // The lone '<' comes out as its own token; the tree builder merges
        // adjacent text nodes, so the DOM still holds "1 < 2".
        let toks = Tokenizer::run("1 < 2");
        assert_eq!(
            toks,
            vec![Token::Text("1 ".into()), Token::Text("<".into()), Token::Text(" 2".into())]
        );
    }

    #[test]
    fn bogus_end_tag_skipped() {
        let toks = Tokenizer::run("a</>b");
        assert_eq!(toks, vec![Token::Text("a".into()), Token::Text("b".into())]);
    }

    #[test]
    fn duplicate_attrs_first_wins() {
        let toks = Tokenizer::run(r#"<a id="1" id="2">"#);
        assert_eq!(toks, vec![start("a", &[("id", "1")])]);
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let toks = Tokenizer::run("<SCRIPT>a</scr + b</Script ><p>");
        assert_eq!(
            toks,
            vec![
                start("script", &[]),
                Token::Text("a</scr + b".into()),
                Token::EndTag { name: "script".into() },
                start("p", &[]),
            ]
        );
        assert_eq!(Tokenizer::run("<style>"), vec![start("style", &[])]);
    }

    #[test]
    fn tokens_borrow_unless_decoded_or_renamed() {
        let toks = Tokenizer::run("<div class=x>plain &amp; <X-Y>");
        let Token::StartTag { name, attrs, .. } = &toks[0] else { panic!("{toks:?}") };
        assert!(matches!(name, Cow::Borrowed("div")));
        assert!(matches!(attrs[0], (Cow::Borrowed("class"), Cow::Borrowed("x"))));
        assert!(matches!(&toks[1], Token::Text(Cow::Owned(t)) if t == "plain & "));
        assert!(matches!(&toks[2], Token::StartTag { name: Cow::Owned(n), .. } if n == "x-y"));
    }

    #[test]
    fn many_bogus_end_tags_do_not_recurse() {
        let input = format!("a{}b", "</>".repeat(200_000));
        let toks = Tokenizer::run(&input);
        assert_eq!(toks, vec![Token::Text("a".into()), Token::Text("b".into())]);
    }

    #[test]
    fn end_tag_attrs_ignored() {
        let toks = Tokenizer::run("</p class=x>");
        assert_eq!(toks, vec![Token::EndTag { name: "p".into() }]);
    }
}
