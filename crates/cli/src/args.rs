//! Minimal argument parsing: positionals plus `--key value` flags.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    pub positionals: Vec<String>,
    pub flags: HashMap<String, String>,
    /// Bare switches (`--json`).
    pub switches: Vec<String>,
}

/// Argument errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    MissingValue(String),
    BadNumber { flag: String, value: String },
    MissingPositional(&'static str),
    MissingFlag(&'static str),
    Unread(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::BadNumber { flag, value } => {
                write!(f, "flag --{flag}: '{value}' is not a number")
            }
            ArgError::MissingPositional(name) => {
                write!(f, "missing argument: {name}")
            }
            ArgError::MissingFlag(name) => write!(f, "missing flag: --{name}"),
            ArgError::Unread(name) => write!(f, "{} is not read by this command", dashed(name)),
        }
    }
}

impl std::error::Error for ArgError {}

/// A flag as it is written on the command line: `-o` for the output
/// path, `--name` for every other.
pub fn dashed(name: &str) -> String {
    if name == "out" {
        "-o".to_string()
    } else {
        format!("--{name}")
    }
}

/// Switches that never take a value.
const SWITCHES: &[&str] = &[
    "json",
    "help",
    "pin-cores",
    "counters",
    "trace",
    // Removed — `--adapt` with the online migration controller,
    // `--segment-counters` with opt-in attribution, `--no-counters`
    // with `ccs trace` (counters are opt-in through `--counters`). Kept
    // switches so that `commands::run` refuses them by name instead of
    // taking the next argument for a value.
    "adapt",
    "segment-counters",
    "no-counters",
];

impl Args {
    /// Parse raw arguments (excluding `argv[0]` and the subcommand).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    // A following `--token` is the next flag, not this
                    // one's value: an unknown switch must not swallow it.
                    let value = iter
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    args.flags.insert(name.to_string(), value);
                }
            } else if let Some(name) = a.strip_prefix("-o") {
                // `-o path` or `-opath`
                let value = if name.is_empty() {
                    iter.next()
                        .ok_or_else(|| ArgError::MissingValue("o".into()))?
                } else {
                    name.to_string()
                };
                args.flags.insert("out".into(), value);
            } else {
                args.positionals.push(a);
            }
        }
        Ok(args)
    }

    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positionals
            .get(i)
            .map(|s| s.as_str())
            .ok_or(ArgError::MissingPositional(name))
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    pub fn required_u64(&self, name: &'static str) -> Result<u64, ArgError> {
        let v = self.flag(name).ok_or(ArgError::MissingFlag(name))?;
        v.parse().map_err(|_| ArgError::BadNumber {
            flag: name.to_string(),
            value: v.to_string(),
        })
    }

    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadNumber {
                flag: name.to_string(),
                value: v.to_string(),
            }),
        }
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Refuse the first flag or switch, by name, that is not in `known`
    /// (`"out"` is `-o`).
    pub fn only(&self, known: &[&str]) -> Result<(), ArgError> {
        let given = self.flags.keys().chain(&self.switches);
        match given.filter(|f| !known.contains(&f.as_str())).min() {
            Some(f) => Err(ArgError::Unread(f.clone())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn mixed_positionals_and_flags() {
        let a = parse(&["graph.json", "--m", "1024", "--b", "16", "--json"]);
        assert_eq!(a.positional(0, "graph").unwrap(), "graph.json");
        assert_eq!(a.required_u64("m").unwrap(), 1024);
        assert_eq!(a.u64_or("b", 8).unwrap(), 16);
        assert_eq!(a.u64_or("missing", 7).unwrap(), 7);
        assert!(a.has("json"));
        assert!(!a.has("help"));
    }

    #[test]
    fn output_flag_forms() {
        let a = parse(&["-o", "out.json"]);
        assert_eq!(a.flag("out"), Some("out.json"));
        let b = parse(&["-oout.json"]);
        assert_eq!(b.flag("out"), Some("out.json"));
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse(vec!["--m".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("m".into()));
    }

    #[test]
    fn a_flag_is_never_another_flags_value() {
        let err = Args::parse(["--m", "--json"].map(String::from)).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("m".into()));
        // Values may still start with a single dash.
        assert_eq!(parse(&["--seed", "-1"]).flag("seed"), Some("-1"));
    }

    #[test]
    fn retired_switches_are_rejected_by_name() {
        // None took a value, so out of `SWITCHES` they fail the
        // parse whether a flag or nothing follows them.
        for switch in [
            "fused",
            "per-worker-warmup",
            "check",
            "history",
            "no-append",
            "first-touch",
            "serial",
        ] {
            let flag = format!("--{switch}");
            for words in [
                vec!["g.json", "--m", "1024", &flag, "--json"],
                vec!["g.json", "--m", "1024", &flag],
            ] {
                let err = Args::parse(words.into_iter().map(String::from)).unwrap_err();
                assert_eq!(err, ArgError::MissingValue(switch.into()));
                assert!(err.to_string().contains(&flag), "{err}");
            }
        }
    }

    #[test]
    fn removed_adapt_switch_never_takes_the_next_argument() {
        // `commands::run` refuses `--adapt` by name; that only works
        // while the parse keeps it a bare switch and leaves whatever
        // follows it in place.
        let a = parse(&["--adapt", "g.json", "--workers", "2"]);
        assert!(a.has("adapt"));
        assert_eq!(a.positionals, vec!["g.json".to_string()]);
        assert_eq!(a.flag("workers"), Some("2"));
        let a = parse(&["g.json", "--adapt", "--json"]);
        assert!(a.has("adapt") && a.has("json"));
    }

    #[test]
    fn only_names_the_first_unread_flag() {
        let a = parse(&[
            "g.json", "--m", "1024", "--stride", "2", "--json", "-o", "x",
        ]);
        assert_eq!(a.only(&["m", "json", "out", "stride"]), Ok(()));
        let err = a.only(&["m", "json", "out"]).unwrap_err();
        assert_eq!(err, ArgError::Unread("stride".into()));
        assert!(err.to_string().contains("--stride"), "{err}");
        assert_eq!(
            a.only(&["m", "stride"]).unwrap_err().to_string(),
            "--json is not read by this command"
        );
        assert!(a
            .only(&["m", "json", "stride"])
            .unwrap_err()
            .to_string()
            .starts_with("-o "));
    }

    #[test]
    fn bad_number_reported() {
        let a = parse(&["--m", "abc"]);
        assert!(matches!(
            a.required_u64("m"),
            Err(ArgError::BadNumber { .. })
        ));
    }

    #[test]
    fn missing_positional_and_flag() {
        let a = parse(&[]);
        assert_eq!(
            a.positional(0, "graph").unwrap_err(),
            ArgError::MissingPositional("graph")
        );
        assert_eq!(a.required_u64("m").unwrap_err(), ArgError::MissingFlag("m"));
    }
}
