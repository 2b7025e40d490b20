//! Character-reference decoding.
//!
//! Covers numeric references (`&#108;`, `&#x6C;`) and the named entities
//! that occur in practice on data-intensive 2000s-era pages (the paper's
//! corpus); unknown references are passed through verbatim, matching
//! browser error tolerance.

/// Named entities supported by the decoder (name without `&`/`;` → char).
static NAMED: &[(&str, &str)] = &[
    ("AElig", "Æ"),
    ("Aacute", "Á"),
    ("Agrave", "À"),
    ("Amp", "&"),
    ("Ccedil", "Ç"),
    ("Eacute", "É"),
    ("Egrave", "È"),
    ("GT", ">"),
    ("LT", "<"),
    ("Ouml", "Ö"),
    ("QUOT", "\""),
    ("Uuml", "Ü"),
    ("aacute", "á"),
    ("acirc", "â"),
    ("acute", "´"),
    ("aelig", "æ"),
    ("agrave", "à"),
    ("amp", "&"),
    ("apos", "'"),
    ("atilde", "ã"),
    ("auml", "ä"),
    ("bull", "•"),
    ("ccedil", "ç"),
    ("cent", "¢"),
    ("copy", "©"),
    ("curren", "¤"),
    ("dagger", "†"),
    ("deg", "°"),
    ("divide", "÷"),
    ("eacute", "é"),
    ("ecirc", "ê"),
    ("egrave", "è"),
    ("euml", "ë"),
    ("euro", "€"),
    ("frac12", "½"),
    ("frac14", "¼"),
    ("gt", ">"),
    ("hellip", "…"),
    ("iacute", "í"),
    ("icirc", "î"),
    ("iexcl", "¡"),
    ("igrave", "ì"),
    ("iquest", "¿"),
    ("iuml", "ï"),
    ("laquo", "«"),
    ("ldquo", "\u{201C}"),
    ("lsquo", "\u{2018}"),
    ("lt", "<"),
    ("mdash", "—"),
    ("middot", "·"),
    ("nbsp", "\u{00A0}"),
    ("ndash", "–"),
    ("ntilde", "ñ"),
    ("oacute", "ó"),
    ("ocirc", "ô"),
    ("ograve", "ò"),
    ("otilde", "õ"),
    ("ouml", "ö"),
    ("para", "¶"),
    ("plusmn", "±"),
    ("pound", "£"),
    ("quot", "\""),
    ("raquo", "»"),
    ("rdquo", "\u{201D}"),
    ("reg", "®"),
    ("rsquo", "\u{2019}"),
    ("sect", "§"),
    ("shy", "\u{00AD}"),
    ("sup1", "¹"),
    ("sup2", "²"),
    ("sup3", "³"),
    ("szlig", "ß"),
    ("times", "×"),
    ("trade", "™"),
    ("uacute", "ú"),
    ("ucirc", "û"),
    ("ugrave", "ù"),
    ("uuml", "ü"),
    ("yen", "¥"),
];

fn lookup_named(name: &str) -> Option<&'static str> {
    NAMED.binary_search_by(|(k, _)| k.cmp(&name)).ok().map(|i| NAMED[i].1)
}

/// Decode all character references in `input`.
///
/// Browser-style tolerance: references without a terminating `;` are
/// decoded when the name matches (e.g. `&amp` → `&`); everything
/// unrecognised is copied through unchanged.
pub fn decode_entities(input: &str) -> String {
    if !input.contains('&') {
        return input.to_string();
    }
    let mut out = String::with_capacity(input.len());
    decode_into(input, &mut out);
    out
}

/// [`decode_entities`], appending to `out`.
pub(crate) fn decode_into(input: &str, out: &mut String) {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy a run of non-'&' bytes.
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&input[start..i]);
            continue;
        }
        match decode_one(&input[i..], out) {
            Some(consumed) => i += consumed,
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
}

/// Try to decode one reference at the start of `s` (which begins with `&`),
/// appending the decoded text to `out`. Returns the number of bytes
/// consumed.
fn decode_one(s: &str, out: &mut String) -> Option<usize> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes[0], b'&');
    if bytes.len() < 2 {
        return None;
    }
    if bytes[1] == b'#' {
        let (radix, digits_start) = if bytes.len() > 2 && (bytes[2] == b'x' || bytes[2] == b'X') {
            (16u32, 3usize)
        } else {
            (10u32, 2usize)
        };
        let mut end = digits_start;
        while end < bytes.len() && (bytes[end] as char).is_digit(radix) {
            end += 1;
        }
        if end == digits_start {
            return None;
        }
        let value = u32::from_str_radix(&s[digits_start..end], radix).ok()?;
        let ch = char::from_u32(value).unwrap_or('\u{FFFD}');
        let consumed = if bytes.get(end) == Some(&b';') { end + 1 } else { end };
        out.push(ch);
        return Some(consumed);
    }
    // Named reference: longest alphanumeric run after '&'.
    let mut end = 1;
    while end < bytes.len() && bytes[end].is_ascii_alphanumeric() {
        end += 1;
    }
    if end == 1 {
        return None;
    }
    let name = &s[1..end];
    let text = lookup_named(name)?;
    let consumed = if bytes.get(end) == Some(&b';') { end + 1 } else { end };
    out.push_str(text);
    Some(consumed)
}

/// Escape text for HTML text-node context.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_text(&mut out, s);
    out
}

/// Escape text for a double-quoted HTML attribute value.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_attr(&mut out, s);
    out
}

/// [`escape_text`], appending to `out`.
pub(crate) fn push_escaped_text(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\u{00A0}' => out.push_str("&nbsp;"),
            c => out.push(c),
        }
    }
}

/// [`escape_attr`], appending to `out`.
pub(crate) fn push_escaped_attr(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_table_is_sorted() {
        for w in NAMED.windows(2) {
            assert!(w[0].0 < w[1].0, "{} >= {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn decodes_common_named() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("&lt;tag&gt;"), "<tag>");
        assert_eq!(decode_entities("caf&eacute;"), "café");
        assert_eq!(decode_entities("x&nbsp;y"), "x\u{00A0}y");
    }

    #[test]
    fn decodes_numeric() {
        assert_eq!(decode_entities("&#65;&#x42;&#X43;"), "ABC");
        assert_eq!(decode_entities("&#8212;"), "—");
    }

    #[test]
    fn missing_semicolon_tolerated() {
        assert_eq!(decode_entities("a &amp b"), "a & b");
        assert_eq!(decode_entities("&#65 x"), "A x");
    }

    #[test]
    fn unknown_passes_through() {
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
        assert_eq!(decode_entities("R&D"), "R&D");
        assert_eq!(decode_entities("&#;"), "&#;");
    }

    #[test]
    fn invalid_code_point_replaced() {
        assert_eq!(decode_entities("&#xD800;"), "\u{FFFD}");
    }

    #[test]
    fn escape_round_trip() {
        let original = "a<b>&\"c\u{00A0}";
        assert_eq!(decode_entities(&escape_text(original)), original);
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr("say \"hi\" & <go>"), "say &quot;hi&quot; &amp; &lt;go>");
    }
}
