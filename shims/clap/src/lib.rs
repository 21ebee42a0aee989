//! Offline shim for `clap` v4 covering the builder surface this
//! workspace's CLI uses: subcommands, long/short options with defaults,
//! `SetTrue` flags, `get_one::<String>` / `get_flag`, and `--help` output.
//!
//! Swap `[workspace.dependencies]` to the real crates.io `clap` when a
//! registry is reachable.

use std::collections::BTreeMap;
use std::fmt;

/// How an argument consumes input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArgAction {
    /// Takes one value (the default).
    #[default]
    Set,
    /// Boolean flag, no value.
    SetTrue,
    /// Takes a value each time it appears; all occurrences are kept.
    /// Arguments with neither `long` nor `short` are positional and
    /// collect bare tokens.
    Append,
}

/// One named argument.
#[derive(Debug, Clone)]
pub struct Arg {
    name: String,
    long: Option<String>,
    short: Option<char>,
    help: Option<String>,
    default: Option<String>,
    value_name: Option<String>,
    action: ArgAction,
    required: bool,
}

impl Arg {
    /// Creates an argument with the given id.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            long: None,
            short: None,
            help: None,
            default: None,
            value_name: None,
            action: ArgAction::Set,
            required: false,
        }
    }

    /// Sets the `--long` form.
    pub fn long(mut self, long: impl Into<String>) -> Self {
        self.long = Some(long.into());
        self
    }

    /// Sets the `-s` short form.
    pub fn short(mut self, short: char) -> Self {
        self.short = Some(short);
        self
    }

    /// Help text shown by `--help`.
    pub fn help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Value used when the argument is absent.
    pub fn default_value(mut self, value: impl Into<String>) -> Self {
        self.default = Some(value.into());
        self
    }

    /// Display name of the value in help output.
    pub fn value_name(mut self, name: impl Into<String>) -> Self {
        self.value_name = Some(name.into());
        self
    }

    /// Sets the consumption behaviour.
    pub fn action(mut self, action: ArgAction) -> Self {
        self.action = action;
        self
    }

    /// Errors when the argument is absent (and has no default).
    pub fn required(mut self, yes: bool) -> Self {
        self.required = yes;
        self
    }
}

/// A (sub)command: name, options, nested subcommands.
#[derive(Debug, Clone, Default)]
pub struct Command {
    name: String,
    about: Option<String>,
    args: Vec<Arg>,
    subcommands: Vec<Command>,
    subcommand_required: bool,
    arg_required_else_help: bool,
    hidden: bool,
}

/// Parse failure (or help request) from `try_get_matches_from`.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
    is_help: bool,
}

impl Error {
    /// Prints the message and exits (code 2 for errors, 0 for help).
    pub fn exit(&self) -> ! {
        if self.is_help {
            println!("{}", self.message);
            std::process::exit(0);
        }
        eprintln!("{}", self.message);
        std::process::exit(2);
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl Command {
    /// Creates a command.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Description shown in help output.
    pub fn about(mut self, about: impl Into<String>) -> Self {
        self.about = Some(about.into());
        self
    }

    /// Requires that a subcommand is given.
    pub fn subcommand_required(mut self, yes: bool) -> Self {
        self.subcommand_required = yes;
        self
    }

    /// Shows help instead of erroring when invoked bare.
    pub fn arg_required_else_help(mut self, yes: bool) -> Self {
        self.arg_required_else_help = yes;
        self
    }

    /// Hides the command from its parent's help output.
    pub fn hide(mut self, yes: bool) -> Self {
        self.hidden = yes;
        self
    }

    /// Adds a subcommand.
    pub fn subcommand(mut self, cmd: Command) -> Self {
        self.subcommands.push(cmd);
        self
    }

    /// Adds an argument.
    pub fn arg(mut self, arg: Arg) -> Self {
        self.args.push(arg);
        self
    }

    /// Validates the definition (no-op beyond duplicate detection).
    ///
    /// # Panics
    ///
    /// Panics on duplicate argument ids within one command.
    pub fn debug_assert(&self) {
        let mut seen = std::collections::BTreeSet::new();
        for arg in &self.args {
            assert!(seen.insert(&arg.name), "duplicate arg id {}", arg.name);
        }
        for sub in &self.subcommands {
            sub.debug_assert();
        }
    }

    fn usage(&self) -> String {
        let mut out = String::new();
        if let Some(about) = &self.about {
            out.push_str(about);
            out.push_str("\n\n");
        }
        out.push_str(&format!("Usage: {} [OPTIONS]", self.name));
        if !self.subcommands.is_empty() {
            out.push_str(" <COMMAND>");
        }
        out.push('\n');
        if !self.subcommands.is_empty() {
            out.push_str("\nCommands:\n");
            for sub in self.subcommands.iter().filter(|s| !s.hidden) {
                out.push_str(&format!(
                    "  {:<12} {}\n",
                    sub.name,
                    sub.about.as_deref().unwrap_or("")
                ));
            }
        }
        if !self.args.is_empty() {
            out.push_str("\nOptions:\n");
            for arg in &self.args {
                let short = arg.short.map(|c| format!("-{c}, ")).unwrap_or_default();
                let long = arg.long.clone().unwrap_or_else(|| arg.name.clone());
                let value = if arg.action == ArgAction::SetTrue {
                    String::new()
                } else {
                    format!(" <{}>", arg.value_name.as_deref().unwrap_or(&arg.name))
                };
                let default = arg
                    .default
                    .as_deref()
                    .map(|d| format!(" [default: {d}]"))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  {short}--{long}{value}  {}{default}\n",
                    arg.help.as_deref().unwrap_or("")
                ));
            }
        }
        out
    }

    /// Parses `std::env::args`, exiting on error or `--help`.
    pub fn get_matches(self) -> ArgMatches {
        let args: Vec<String> = std::env::args().collect();
        match self.try_get_matches_from(args) {
            Ok(matches) => matches,
            Err(err) => err.exit(),
        }
    }

    /// Parses the given arguments, exiting on error or `--help`.
    pub fn get_matches_from<I, T>(self, args: I) -> ArgMatches
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        match self.try_get_matches_from(args) {
            Ok(matches) => matches,
            Err(err) => err.exit(),
        }
    }

    /// Parses the given arguments.
    ///
    /// # Errors
    ///
    /// [`struct@Error`] on unknown options, missing values, missing required
    /// subcommands, or a help request.
    pub fn try_get_matches_from<I, T>(self, args: I) -> Result<ArgMatches, Error>
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let mut input: Vec<String> = args.into_iter().map(Into::into).collect();
        if !input.is_empty() {
            input.remove(0); // argv[0]
        }
        self.parse(&input)
    }

    fn find_arg(&self, token: &str) -> Option<&Arg> {
        if let Some(long) = token.strip_prefix("--") {
            self.args
                .iter()
                .find(|a| a.long.as_deref() == Some(long) || a.name == long)
        } else if let Some(short) = token.strip_prefix('-') {
            let mut chars = short.chars();
            let c = chars.next()?;
            if chars.next().is_some() {
                return None;
            }
            self.args.iter().find(|a| a.short == Some(c))
        } else {
            None
        }
    }

    fn parse(&self, input: &[String]) -> Result<ArgMatches, Error> {
        let mut matches = ArgMatches::default();
        for arg in &self.args {
            if let Some(default) = &arg.default {
                matches.values.insert(arg.name.clone(), default.clone());
            }
        }
        let mut i = 0;
        while i < input.len() {
            let token = &input[i];
            if token == "--help" || token == "-h" {
                return Err(Error {
                    message: self.usage(),
                    is_help: true,
                });
            }
            if token.starts_with('-') && token.len() > 1 {
                let (head, inline_value) = match token.split_once('=') {
                    Some((h, v)) => (h, Some(v.to_string())),
                    None => (token.as_str(), None),
                };
                let Some(arg) = self.find_arg(head) else {
                    return Err(Error {
                        message: format!("unexpected argument '{token}'\n\n{}", self.usage()),
                        is_help: false,
                    });
                };
                match arg.action {
                    ArgAction::SetTrue => {
                        matches.flags.insert(arg.name.clone());
                    }
                    ArgAction::Set | ArgAction::Append => {
                        let value = match inline_value {
                            Some(v) => v,
                            None => {
                                i += 1;
                                input.get(i).cloned().ok_or_else(|| Error {
                                    message: format!("option '{head}' requires a value"),
                                    is_help: false,
                                })?
                            }
                        };
                        if arg.action == ArgAction::Append {
                            matches
                                .multi
                                .entry(arg.name.clone())
                                .or_default()
                                .push(value);
                        } else {
                            matches.values.insert(arg.name.clone(), value);
                        }
                    }
                }
                i += 1;
                continue;
            }
            // First positional token: a subcommand, if any are defined.
            if let Some(sub) = self.subcommands.iter().find(|s| s.name == *token) {
                let sub_matches = sub.parse(&input[i + 1..])?;
                matches.subcommand = Some((sub.name.clone(), Box::new(sub_matches)));
                return Ok(matches);
            }
            // Otherwise a positional argument, if the command declares one
            // (an `Append` arg with neither a long nor a short name).
            if let Some(arg) = self
                .args
                .iter()
                .find(|a| a.long.is_none() && a.short.is_none() && a.action == ArgAction::Append)
            {
                matches
                    .multi
                    .entry(arg.name.clone())
                    .or_default()
                    .push(token.clone());
                i += 1;
                continue;
            }
            return Err(Error {
                message: format!("unexpected argument '{token}'\n\n{}", self.usage()),
                is_help: false,
            });
        }
        if (self.subcommand_required || self.arg_required_else_help) && matches.subcommand.is_none()
        {
            return Err(Error {
                message: self.usage(),
                is_help: self.arg_required_else_help,
            });
        }
        for arg in &self.args {
            if arg.required && !matches.values.contains_key(&arg.name) {
                return Err(Error {
                    message: format!(
                        "the following required argument was not provided: --{}\n\n{}",
                        arg.long.as_deref().unwrap_or(&arg.name),
                        self.usage()
                    ),
                    is_help: false,
                });
            }
        }
        Ok(matches)
    }
}

/// Parsed argument values.
#[derive(Debug, Clone, Default)]
pub struct ArgMatches {
    values: BTreeMap<String, String>,
    multi: BTreeMap<String, Vec<String>>,
    flags: std::collections::BTreeSet<String>,
    subcommand: Option<(String, Box<ArgMatches>)>,
}

impl ArgMatches {
    /// The value of argument `name`, if present. Only `String` values are
    /// supported by the shim.
    pub fn get_one<T: FromArgValue>(&self, name: &str) -> Option<&T> {
        self.values.get(name).map(T::from_stored)
    }

    /// All values of an `Append` argument, in occurrence order; `None`
    /// when it never appeared.
    pub fn get_many<'a, T: FromArgValue + 'a>(
        &'a self,
        name: &str,
    ) -> Option<impl Iterator<Item = &'a T>> {
        self.multi.get(name).map(|v| v.iter().map(T::from_stored))
    }

    /// Whether a `SetTrue` flag was given.
    pub fn get_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The chosen subcommand, if any.
    pub fn subcommand(&self) -> Option<(&str, &ArgMatches)> {
        self.subcommand
            .as_ref()
            .map(|(name, matches)| (name.as_str(), matches.as_ref()))
    }
}

/// Conversion from the shim's stored `String` values (only `String` is
/// supported; parse at the call site as the workspace does).
pub trait FromArgValue {
    /// Reinterprets the stored value.
    #[allow(clippy::ptr_arg)] // deliberate: values are stored as `String`
    fn from_stored(stored: &String) -> &Self;
}

impl FromArgValue for String {
    #[allow(clippy::ptr_arg)]
    fn from_stored(stored: &String) -> &String {
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Command {
        Command::new("tool").subcommand_required(true).subcommand(
            Command::new("run")
                .arg(Arg::new("n").long("n").short('n').default_value("4"))
                .arg(Arg::new("json").long("json").action(ArgAction::SetTrue)),
        )
    }

    #[test]
    fn defaults_and_overrides() {
        let m = cli()
            .try_get_matches_from(["tool", "run", "-n", "8", "--json"])
            .unwrap();
        let (name, sub) = m.subcommand().unwrap();
        assert_eq!(name, "run");
        assert_eq!(sub.get_one::<String>("n").unwrap(), "8");
        assert!(sub.get_flag("json"));

        let m = cli().try_get_matches_from(["tool", "run"]).unwrap();
        let (_, sub) = m.subcommand().unwrap();
        assert_eq!(sub.get_one::<String>("n").unwrap(), "4");
        assert!(!sub.get_flag("json"));
    }

    #[test]
    fn equals_form_parses() {
        let m = cli()
            .try_get_matches_from(["tool", "run", "--n=16"])
            .unwrap();
        let (_, sub) = m.subcommand().unwrap();
        assert_eq!(sub.get_one::<String>("n").unwrap(), "16");
    }

    #[test]
    fn unknown_arguments_error() {
        assert!(cli()
            .try_get_matches_from(["tool", "run", "--bogus"])
            .is_err());
        assert!(cli().try_get_matches_from(["tool", "nope"]).is_err());
    }

    #[test]
    fn missing_required_subcommand_errors() {
        assert!(cli().try_get_matches_from(["tool"]).is_err());
    }

    #[test]
    fn required_arguments_are_enforced() {
        let cmd = || {
            Command::new("tool")
                .subcommand(Command::new("run").arg(Arg::new("rank").long("rank").required(true)))
        };
        assert!(cmd().try_get_matches_from(["tool", "run"]).is_err());
        let m = cmd()
            .try_get_matches_from(["tool", "run", "--rank", "2"])
            .unwrap();
        let (_, sub) = m.subcommand().unwrap();
        assert_eq!(sub.get_one::<String>("rank").unwrap(), "2");
    }

    #[test]
    fn hidden_subcommands_parse_but_stay_out_of_help() {
        let cmd = || {
            Command::new("tool")
                .subcommand(Command::new("run"))
                .subcommand(Command::new("__internal").hide(true))
        };
        let m = cmd().try_get_matches_from(["tool", "__internal"]).unwrap();
        assert_eq!(m.subcommand().unwrap().0, "__internal");
        let help = cmd().try_get_matches_from(["tool", "--help"]).unwrap_err();
        assert!(!help.to_string().contains("__internal"));
        assert!(help.to_string().contains("run"));
    }
}
