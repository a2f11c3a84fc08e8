//! One flag table behind every binary.
//!
//! A binary (or one of its subcommands) is a [`Command`] that lists its
//! flags in one slice of [`Flag`] constants, each holding the flag's name,
//! the placeholder of its value and one help line. [`parse`] reads argv
//! against that slice, and [`Command::help`] renders `--help` from it, so
//! every flag is spelled once.
//!
//! An unknown flag, a valued flag without a value, an unexpected
//! positional argument, and a value that does not parse are
//! [`UsageError`]s; the binaries print them with the help text and exit 2.
//! `--help` or `-h` prints the help to stdout and exits 0.
//!
//! ```
//! use raven::flags::{self, Command, Flag};
//!
//! const EPS: Flag = Flag::valued("--eps", "f", "perturbation radius (required)");
//! const JSON: Flag = Flag::switch("--json", "print the verdict as JSON");
//! const VERIFY: Command = Command {
//!     name: "verify",
//!     args: "",
//!     about: "Verifies a property.",
//!     flags: &[EPS, JSON],
//!     commands: &[],
//! };
//!
//! let argv: Vec<String> = ["--eps", "0.1", "--json"].map(String::from).to_vec();
//! let parsed = flags::parse(&VERIFY, &argv).unwrap();
//! assert_eq!(parsed.required::<f64>(&EPS).unwrap(), 0.1);
//! assert!(parsed.has(&JSON));
//!
//! let typo: Vec<String> = ["--esp", "0.1"].map(String::from).to_vec();
//! assert_eq!(flags::parse(&VERIFY, &typo).unwrap_err().to_string(), "unknown flag --esp");
//! ```

use std::fmt;
use std::str::FromStr;

/// One command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, leading `--` included.
    pub name: &'static str,
    /// Placeholder for the value in the help text; `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by a value, shown as `<value>` in the help text.
    pub const fn valued(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }

    fn label(&self) -> String {
        match self.value {
            Some(value) => format!("{} <{value}>", self.name),
            None => self.name.to_string(),
        }
    }
}

/// A binary or a subcommand, and the flags it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The name typed to run it.
    pub name: &'static str,
    /// Synopsis of its positional arguments; empty when it takes none.
    pub args: &'static str,
    /// What it does, printed under the usage line.
    pub about: &'static str,
    /// Its flags. With subcommands, the flags every subcommand accepts.
    pub flags: &'static [Flag],
    /// Its subcommands, one of which the first argument names; empty for
    /// a command without any.
    pub commands: &'static [Command],
}

impl Command {
    /// The generated `--help` text. With subcommands it lists every
    /// subcommand with its flags.
    pub fn help(&self) -> String {
        help_text(self, None)
    }

    /// Prints `error: {err}` and the help text to stderr, and exits the
    /// process with status 2.
    pub fn usage_exit(&self, err: impl fmt::Display) -> ! {
        eprintln!("error: {err}\n\n{}", self.help());
        std::process::exit(2)
    }
}

/// A malformed invocation (exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<UsageError> for String {
    fn from(err: UsageError) -> String {
        err.0
    }
}

/// The flags and positional arguments read from argv.
#[derive(Debug, Default)]
pub struct Parsed {
    command: Option<&'static str>,
    /// `(flag name, value)` in argv order; switches carry no value.
    values: Vec<(&'static str, Option<String>)>,
    args: Vec<String>,
}

impl Parsed {
    /// The subcommand the first argument named, for a command with
    /// subcommands.
    pub fn command(&self) -> Option<&'static str> {
        self.command
    }

    /// The positional arguments, in order.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.values.iter().any(|(name, _)| *name == flag.name)
    }

    /// The value of `flag` parsed as `T`, `None` when the flag is absent.
    /// A repeated flag takes its last value.
    pub fn value<T>(&self, flag: &Flag) -> Result<Option<T>, UsageError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        let raw = self
            .values
            .iter()
            .rev()
            .find(|(name, _)| *name == flag.name)
            .and_then(|(_, value)| value.as_deref());
        raw.map(|v| {
            v.parse()
                .map_err(|e| UsageError(format!("{}: {e}", flag.name)))
        })
        .transpose()
    }

    /// Like [`Parsed::value`], for a flag the command cannot run without.
    pub fn required<T>(&self, flag: &Flag) -> Result<T, UsageError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        self.value(flag)?
            .ok_or_else(|| UsageError(format!("missing {}", flag.name)))
    }
}

/// Reads `argv` (without the program name) against `cmd`'s flag table.
///
/// `--help` or `-h` where a flag may stand prints the help of `cmd`, or of
/// the subcommand already named, to stdout and exits the process with
/// status 0.
pub fn parse(cmd: &Command, argv: &[String]) -> Result<Parsed, UsageError> {
    match read(cmd, argv)? {
        Reading::Flags(parsed) => Ok(parsed),
        Reading::Help(text) => {
            print!("{text}");
            std::process::exit(0)
        }
    }
}

/// The spellings of the help request every command accepts, and its line
/// in the help text.
const HELP: [&str; 2] = ["--help", "-h"];
const HELP_LINE: Flag = Flag::switch("-h, --help", "print this help and exit");

enum Reading {
    Flags(Parsed),
    Help(String),
}

fn read(cmd: &Command, argv: &[String]) -> Result<Reading, UsageError> {
    let is_help = |arg: &str| HELP.contains(&arg);
    let mut parsed = Parsed::default();
    let (sub, rest) = if cmd.commands.is_empty() {
        (None, argv)
    } else {
        let Some((first, rest)) = argv.split_first() else {
            return Err(UsageError("missing command".to_string()));
        };
        if is_help(first) {
            return Ok(Reading::Help(cmd.help()));
        }
        let sub = cmd
            .commands
            .iter()
            .find(|c| c.name == first)
            .ok_or_else(|| UsageError(format!("unknown command {first:?}")))?;
        parsed.command = Some(sub.name);
        (Some(sub), rest)
    };
    let own = sub.map_or(&[][..], |s| s.flags);
    let takes_args = !sub.unwrap_or(cmd).args.is_empty();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if is_help(arg) {
            return Ok(Reading::Help(help_text(cmd, sub)));
        }
        if !arg.starts_with("--") {
            if !takes_args {
                return Err(UsageError(format!("unexpected argument {arg:?}")));
            }
            parsed.args.push(arg.clone());
            continue;
        }
        let flag = own
            .iter()
            .chain(cmd.flags)
            .find(|f| f.name == arg)
            .ok_or_else(|| UsageError(format!("unknown flag {arg}")))?;
        let value = match flag.value {
            None => None,
            Some(_) => match it.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(UsageError(format!("{} needs a value", flag.name))),
            },
        };
        parsed.values.push((flag.name, value));
    }
    Ok(Reading::Flags(parsed))
}

/// Renders the help of `top`, or of its subcommand `sub`.
fn help_text(top: &Command, sub: Option<&Command>) -> String {
    let cmd = sub.unwrap_or(top);
    let mut usage = match sub {
        Some(s) => format!("{} {} [flags]", top.name, s.name),
        None if !top.commands.is_empty() => format!("{} <command> [flags]", top.name),
        None => format!("{} [flags]", top.name),
    };
    if !cmd.args.is_empty() {
        usage = format!("{usage} {}", cmd.args);
    }
    let mut sections: Vec<(String, &[Flag])> = match sub {
        Some(s) => vec![("flags:".to_string(), s.flags)],
        None => top
            .commands
            .iter()
            .map(|c| {
                (
                    format!("{} {} [flags]: {}", top.name, c.name, c.about),
                    c.flags,
                )
            })
            .collect(),
    };
    let global = if top.commands.is_empty() {
        "flags:"
    } else {
        "global flags:"
    };
    sections.push((global.to_string(), top.flags));

    let width = sections
        .iter()
        .flat_map(|(_, flags)| flags.iter())
        .chain([&HELP_LINE])
        .map(|f| f.label().len())
        .max()
        .unwrap_or(0);
    let mut out = format!("usage: {usage}\n\n{}\n", cmd.about);
    let last = sections.len() - 1;
    for (i, (heading, flags)) in sections.iter().enumerate() {
        out.push_str(&format!("\n{heading}\n"));
        // --help closes the last section.
        for f in flags.iter().chain((i == last).then_some(&HELP_LINE)) {
            out.push_str(&format!("  {:<width$}  {}\n", f.label(), f.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: Flag = Flag::valued("--model", "net.txt", "the model (required)");
    const THREADS: Flag = Flag::valued("--threads", "n", "solver threads");
    const JSON: Flag = Flag::switch("--json", "print JSON");
    const STATS: Flag = Flag::switch("--stats", "print solver stats");
    const TABLES: Command = Command {
        name: "tables",
        args: "[t1 t2 ...|all]",
        about: "Regenerates tables.",
        flags: &[THREADS, JSON],
        commands: &[],
    };
    const CLI: Command = Command {
        name: "cli",
        args: "",
        about: "A tool.",
        flags: &[STATS],
        commands: &[
            Command {
                name: "info",
                args: "",
                about: "prints a model",
                flags: &[MODEL],
                commands: &[],
            },
            Command {
                name: "run",
                args: "",
                about: "runs a model",
                flags: &[MODEL, THREADS, JSON],
                commands: &[],
            },
        ],
    };

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn flags(cmd: &Command, list: &[&str]) -> Result<Parsed, String> {
        match read(cmd, &argv(list)) {
            Ok(Reading::Flags(parsed)) => Ok(parsed),
            Ok(Reading::Help(_)) => panic!("unexpected help request"),
            Err(e) => Err(e.0),
        }
    }

    fn help(cmd: &Command, list: &[&str]) -> String {
        match read(cmd, &argv(list)) {
            Ok(Reading::Help(text)) => text,
            _ => panic!("expected a help request"),
        }
    }

    #[test]
    fn reads_values_switches_and_positionals() {
        let p = flags(
            &TABLES,
            &["t1", "--threads", "4", "--json", "t5", "--threads", "2"],
        )
        .unwrap();
        assert_eq!(p.args(), ["t1", "t5"]);
        assert!(p.has(&JSON));
        // The last repeat wins.
        assert_eq!(p.value::<usize>(&THREADS).unwrap(), Some(2));
        let p = flags(&TABLES, &[]).unwrap();
        assert!(!p.has(&JSON));
        assert_eq!(p.value::<usize>(&THREADS).unwrap(), None);
        assert_eq!(p.command(), None);
    }

    #[test]
    fn malformed_invocations_are_usage_errors() {
        assert_eq!(
            flags(&TABLES, &["--quik"]).unwrap_err(),
            "unknown flag --quik"
        );
        assert_eq!(
            flags(&TABLES, &["--threads"]).unwrap_err(),
            "--threads needs a value"
        );
        // A flag is never taken for a value, so a forgotten value cannot
        // swallow the next flag.
        assert_eq!(
            flags(&TABLES, &["--threads", "--json"]).unwrap_err(),
            "--threads needs a value"
        );
        let p = flags(&TABLES, &["--threads", "many"]).unwrap();
        assert!(p
            .value::<usize>(&THREADS)
            .unwrap_err()
            .0
            .starts_with("--threads: "));
        assert_eq!(
            p.required::<String>(&MODEL).unwrap_err().0,
            "missing --model"
        );
        // Only a command that declares positional arguments takes them.
        assert_eq!(
            flags(&CLI, &["run", "extra"]).unwrap_err(),
            "unexpected argument \"extra\""
        );
    }

    #[test]
    fn subcommands_take_their_own_and_the_global_flags() {
        let p = flags(
            &CLI,
            &["run", "--model", "m.net", "--stats", "--threads", "-1"],
        )
        .unwrap();
        assert_eq!(p.command(), Some("run"));
        assert_eq!(p.required::<String>(&MODEL).unwrap(), "m.net");
        assert!(p.has(&STATS));
        // A value may start with a single dash.
        assert!(p.value::<usize>(&THREADS).is_err());
        assert_eq!(
            flags(&CLI, &["info", "--json"]).unwrap_err(),
            "unknown flag --json"
        );
        assert_eq!(flags(&CLI, &[]).unwrap_err(), "missing command");
        assert_eq!(
            flags(&CLI, &["frob"]).unwrap_err(),
            "unknown command \"frob\""
        );
        assert_eq!(
            flags(&CLI, &["--stats"]).unwrap_err(),
            "unknown command \"--stats\""
        );
    }

    #[test]
    fn help_lists_every_flag_of_the_table() {
        let text = help(&TABLES, &["--threads", "2", "-h"]);
        assert!(text.starts_with("usage: tables [flags] [t1 t2 ...|all]\n"));
        for f in TABLES.flags {
            assert!(text.contains(&f.label()), "{text}");
            assert!(text.contains(f.help), "{text}");
        }
        assert!(text.contains(HELP_LINE.name));
        assert_eq!(help(&TABLES, &["--help"]), TABLES.help());

        // The top-level help lists every subcommand's flags; a
        // subcommand's help lists its own and the global ones.
        let top = help(&CLI, &["--help"]);
        assert!(top.starts_with("usage: cli <command> [flags]\n"));
        for c in CLI.commands {
            assert!(top.contains(&format!("cli {} [flags]: {}", c.name, c.about)));
            for f in c.flags {
                assert!(top.contains(&f.label()), "{top}");
            }
        }
        assert!(top.contains("global flags:\n  --stats"));
        let info = help(&CLI, &["info", "-h"]);
        assert!(info.starts_with("usage: cli info [flags]\n"));
        assert!(info.contains("--model <net.txt>") && info.contains("--stats"));
        assert!(!info.contains("--threads"));
        // An unknown flag before --help is still an error.
        assert!(read(&CLI, &argv(&["info", "--bogus", "--help"])).is_err());
    }
}
