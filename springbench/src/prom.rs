//! A reader for the Prometheus text exposition `GET /metrics` serves.

/// One scraped exposition: every sample line as (series name, label
/// text between the braces, value).
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    samples: Vec<(String, String, f64)>,
}

impl Exposition {
    /// Parses an exposition body. Comment and blank lines are skipped;
    /// any other line must be `name[{labels}] value`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("/metrics line {}: `{line}`", no + 1);
            let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                v => v.parse().map_err(|_| bad())?,
            };
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}').ok_or_else(bad)?),
                None => (series, ""),
            };
            samples.push((name.to_string(), labels.to_string(), value));
        }
        Ok(Exposition { samples })
    }

    /// Parses the body of a full HTTP response to `GET /metrics`.
    pub fn from_http(response: &str) -> Result<Self, String> {
        if !response.starts_with("HTTP/1.1 200") {
            let status = response.lines().next().unwrap_or("");
            return Err(format!("/metrics answered `{status}`"));
        }
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .ok_or("/metrics response has no body")?;
        Exposition::parse(body)
    }

    /// The value of an unlabelled series.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(n, labels, _)| n == name && labels.is_empty())
            .map(|&(_, _, v)| v)
    }

    /// Every value of a labelled series, in exposition order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .collect()
    }

    /// The value of label `key` on the first sample of series `name`.
    pub fn label(&self, name: &str, key: &str) -> Option<String> {
        let (_, labels, _) = self.samples.iter().find(|(n, _, _)| n == name)?;
        labels.split(',').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k.trim() == key).then(|| v.trim().trim_matches('"').to_string())
        })
    }
}
