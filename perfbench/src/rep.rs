//! One repetition's results, as a child process hands them to the parent.

use std::collections::BTreeMap;

use rdt_obs::json::{self, JsonValue};

use crate::trace;

/// What one repetition measured and checked.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rep {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Simulated counts, which must repeat exactly for a seed.
    pub counts: Vec<(String, u64)>,
}

impl Rep {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a simulated count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Sets `self.<layer>_s` for every layer that recorded spans.
    pub fn set_self_times(&mut self) {
        for (layer, secs) in trace::self_times() {
            self.set(&format!("self.{layer}_s"), secs);
        }
    }

    /// The one-line form a child prints.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("attempted".into(), JsonValue::UInt(self.attempted)),
            ("failed".into(), JsonValue::UInt(self.failed)),
            (
                "failures".into(),
                JsonValue::Arr(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::Str(f.clone()))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "counts".into(),
                JsonValue::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses what [`to_json`](Self::to_json) printed.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let field = |name: &str| v.get(name).ok_or(format!("missing field {name}"));
        let object = |name: &str| match field(name)? {
            JsonValue::Obj(pairs) => Ok(pairs),
            _ => Err(format!("{name} is not an object")),
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or(format!("{name} is not a count"))
        };
        let failures = match field("failures")? {
            JsonValue::Arr(items) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or("failure is not a string")
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("failures is not an array".into()),
        };
        let metrics = object("metrics")?
            .iter()
            .map(|(k, v)| match v {
                JsonValue::Num(x) => Ok((k.clone(), *x)),
                JsonValue::UInt(x) => Ok((k.clone(), *x as f64)),
                JsonValue::Int(x) => Ok((k.clone(), *x as f64)),
                _ => Err(format!("metric {k} is not a number")),
            })
            .collect::<Result<_, _>>()?;
        let counts = object("counts")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("count {k} is not a count"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            failures,
            metrics,
            counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_its_line() {
        let mut rep = Rep {
            attempted: 12,
            failed: 1,
            ..Rep::default()
        };
        rep.set("wall_s", 1.25);
        rep.set("sim.lost", 0.0);
        rep.count("basic", 7);
        rep.fail("a \"quoted\" reason");
        assert_eq!(Rep::parse(&rep.to_json().to_string()).unwrap(), rep);
    }
}
