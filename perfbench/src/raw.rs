//! A minimal JSON scanner over raw response text.
//!
//! The benchmark reads responses without the workspace's own JSON code, so
//! a served receipt is compared to its reference as the exact bytes the
//! server wrote. Values come back as slices of the input.

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// End (exclusive) of the string starting at the quote at `i`.
fn string_end(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// End (exclusive) of the value starting at `i`.
fn value_end(b: &[u8], i: usize) -> Option<usize> {
    match *b.get(i)? {
        b'"' => string_end(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => {
                        j = string_end(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') && !b[j].is_ascii_whitespace()
            {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// The members of an object, keys unescaped only trivially (the protocol
/// never escapes key characters).
pub fn fields(obj: &str) -> Option<Vec<(String, &str)>> {
    let b = obj.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(b, i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b'}') {
        return Some(out);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(b, i)?;
        let key = obj[i + 1..key_end - 1].to_string();
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let end = value_end(b, i)?;
        out.push((key, &obj[i..end]));
        i = skip_ws(b, end);
        match b.get(i)? {
            b',' => i = skip_ws(b, i + 1),
            b'}' => return Some(out),
            _ => return None,
        }
    }
}

/// The elements of an array.
pub fn items(arr: &str) -> Option<Vec<&str>> {
    let b = arr.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'[') {
        return None;
    }
    i = skip_ws(b, i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b']') {
        return Some(out);
    }
    loop {
        let end = value_end(b, i)?;
        out.push(&arr[i..end]);
        i = skip_ws(b, end);
        match b.get(i)? {
            b',' => i = skip_ws(b, i + 1),
            b']' => return Some(out),
            _ => return None,
        }
    }
}

/// One member of an object.
pub fn get<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    fields(obj)?
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A member along a path of keys, read as a number.
pub fn num(obj: &str, path: &[&str]) -> Option<f64> {
    let mut v = obj;
    for key in path {
        v = get(v, key)?;
    }
    v.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_nested_responses() {
        let line = r#"{"ok":true,"results":[{"ok":true,"receipt":{"workload":"o}","final_clocks":[1,2]},"queue_us":12},{"ok":false,"error":"a\"b"}]}"#;
        let results = items(get(line, "results").unwrap()).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            get(results[0], "receipt"),
            Some(r#"{"workload":"o}","final_clocks":[1,2]}"#)
        );
        assert_eq!(num(results[0], &["queue_us"]), Some(12.0));
        assert_eq!(get(results[1], "error"), Some(r#""a\"b""#));
        assert_eq!(get(results[1], "ok"), Some("false"));
        assert_eq!(num(line, &["nope"]), None);
        assert!(fields("{\"a\":1,}").is_none());
        assert!(items("[1,2").is_none());
    }
}
