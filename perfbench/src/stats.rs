//! Order statistics, a content digest and a minimal JSON writer.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a (64-bit) over everything fed to it: a stable fingerprint of
/// final weights and counters that two runs with one seed must share.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A JSON object assembled field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.0.push((key.to_string(), num(v)));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.0.push((key.to_string(), string(v)));
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    /// Inserts an already-serialised JSON value.
    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn finish(self) -> String {
        let fields: Vec<String> = self
            .0
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", string(&k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; `null` otherwise.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f32s(&[1.0, 2.0]);
        b.f32s(&[1.0, f32::from_bits(2.0f32.to_bits() ^ 1)]);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn json_escapes_and_nulls() {
        let s = Obj::default()
            .str("a\"b", "x\ny")
            .num("n", f64::NAN)
            .int("i", 3)
            .finish();
        assert_eq!(s, r#"{"a\"b": "x\ny", "n": null, "i": 3}"#);
    }
}
