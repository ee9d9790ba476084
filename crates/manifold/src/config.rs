//! The CONFIG stage: mapping task instances onto hosts.
//!
//! In the MANIFOLD toolchain, the runtime configurator CONFIG reads a file
//! such as
//!
//! ```text
//! {host host1 diplice.sen.cwi.nl}
//! {host host2 alboka.sen.cwi.nl}
//! {locus mainprog $host1 $host2}
//! ```
//!
//! defining host variables and stating on which hosts instances of each task
//! may be started. This module parses that syntax (and offers a typed
//! builder) into a [`ConfigSpec`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{MfError, MfResult};
use crate::ident::Name;

/// The DNS-ish name of a machine (e.g. `bumpa.sen.cwi.nl`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostName(Arc<str>);

impl HostName {
    /// Create a host name.
    pub fn new(s: impl AsRef<str>) -> Self {
        HostName(Arc::from(s.as_ref()))
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for HostName {
    fn from(s: &str) -> Self {
        HostName::new(s)
    }
}

impl From<String> for HostName {
    fn from(s: String) -> Self {
        HostName::new(s)
    }
}

/// Parsed CONFIG specification.
#[derive(Clone, Debug)]
pub struct ConfigSpec {
    /// Host variable bindings, in declaration order.
    hosts: Vec<(Name, HostName)>,
    /// For each task name: the ordered host list it may run on (already
    /// resolved from `$var` references).
    locus: HashMap<Name, Vec<HostName>>,
    /// The machine the application is started from ("start-up machine").
    startup: HostName,
}

impl ConfigSpec {
    /// An empty spec whose startup machine is `localhost`. Every task runs
    /// on the startup machine.
    pub fn local() -> Self {
        ConfigSpec {
            hosts: Vec::new(),
            locus: HashMap::new(),
            startup: HostName::new("localhost"),
        }
    }

    /// Start building a spec with the given startup machine.
    pub fn with_startup(startup: impl Into<HostName>) -> Self {
        ConfigSpec {
            hosts: Vec::new(),
            locus: HashMap::new(),
            startup: startup.into(),
        }
    }

    /// Declare a host variable (`{host <var> <machine>}`).
    pub fn host(mut self, var: impl Into<Name>, machine: impl Into<HostName>) -> Self {
        self.hosts.push((var.into(), machine.into()));
        self
    }

    /// Declare a locus (`{locus <task> $var …}`), referencing previously
    /// declared host variables by name (without the `$`).
    pub fn locus(mut self, task: impl Into<Name>, vars: &[&str]) -> Self {
        let resolved = vars
            .iter()
            .map(|v| {
                self.hosts
                    .iter()
                    .find(|(n, _)| n == v)
                    .map(|(_, h)| h.clone())
                    .unwrap_or_else(|| HostName::new(*v))
            })
            .collect();
        self.locus.insert(task.into(), resolved);
        self
    }

    /// Append `machine` to `task`'s locus (a machine joining the fleet).
    pub fn add_to_locus(&mut self, task: &Name, machine: HostName) {
        self.locus.entry(task.clone()).or_default().push(machine);
    }

    /// Drop `machine` from every locus (a machine leaving the fleet).
    pub fn remove_from_loci(&mut self, machine: &HostName) {
        for hosts in self.locus.values_mut() {
            hosts.retain(|h| h != machine);
        }
    }

    /// The start-up machine.
    pub fn startup_host(&self) -> &HostName {
        &self.startup
    }

    /// All declared host machines (in declaration order, deduplicated),
    /// *excluding* the startup machine unless it was declared.
    pub fn declared_hosts(&self) -> Vec<HostName> {
        let mut out = Vec::new();
        for (_, h) in &self.hosts {
            if !out.contains(h) {
                out.push(h.clone());
            }
        }
        out
    }

    /// Candidate hosts for instances of `task`: the declared locus, or the
    /// startup machine when none was declared.
    pub fn hosts_for(&self, task: &Name) -> Vec<HostName> {
        match self.locus.get(task) {
            Some(hs) if !hs.is_empty() => hs.clone(),
            _ => vec![self.startup.clone()],
        }
    }

    /// Parse the textual `{host …} {locus …}` syntax shown in §6 of the
    /// paper. Unknown directives are rejected.
    pub fn parse(text: &str, startup: impl Into<HostName>) -> MfResult<Self> {
        let mut spec = ConfigSpec::with_startup(startup);
        for group in crate::link::lex_groups(text)? {
            let mut it = group.iter();
            match it.next().map(String::as_str) {
                Some("host") => {
                    let var = it
                        .next()
                        .ok_or_else(|| MfError::Spec("host: missing variable".into()))?;
                    let machine = it
                        .next()
                        .ok_or_else(|| MfError::Spec("host: missing machine".into()))?;
                    spec.hosts.push((Name::new(var), HostName::new(machine)));
                }
                Some("locus") => {
                    let task = it
                        .next()
                        .ok_or_else(|| MfError::Spec("locus: missing task".into()))?;
                    let mut hosts = Vec::new();
                    for v in it {
                        let key = v.strip_prefix('$').unwrap_or(v);
                        let resolved = spec
                            .hosts
                            .iter()
                            .find(|(n, _)| n == key)
                            .map(|(_, h)| h.clone())
                            .ok_or_else(|| {
                                MfError::Spec(format!("locus: unknown host variable {v}"))
                            })?;
                        hosts.push(resolved);
                    }
                    spec.locus.insert(Name::new(task), hosts);
                }
                Some(other) => {
                    return Err(MfError::Spec(format!("unknown config directive: {other}")))
                }
                None => return Err(MfError::Spec("empty group".into())),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_CONFIG: &str = r#"
{host host1 diplice.sen.cwi.nl}
{host host2 alboka.sen.cwi.nl}
{host host3 altfluit.sen.cwi.nl}
{host host4 arghul.sen.cwi.nl}
{host host5 basfluit.sen.cwi.nl}
{locus mainprog $host1 $host2 $host3 $host4 $host5}
"#;

    #[test]
    fn parses_paper_config() {
        let spec = ConfigSpec::parse(PAPER_CONFIG, "bumpa.sen.cwi.nl").unwrap();
        assert_eq!(spec.startup_host().as_str(), "bumpa.sen.cwi.nl");
        let hosts = spec.hosts_for(&Name::new("mainprog"));
        assert_eq!(hosts.len(), 5);
        assert_eq!(hosts[0].as_str(), "diplice.sen.cwi.nl");
        assert_eq!(hosts[4].as_str(), "basfluit.sen.cwi.nl");
    }

    #[test]
    fn missing_locus_falls_back_to_startup() {
        let spec = ConfigSpec::local();
        assert_eq!(
            spec.hosts_for(&Name::new("anything")),
            vec![HostName::new("localhost")]
        );
    }

    #[test]
    fn builder_resolves_variables() {
        let spec = ConfigSpec::with_startup("start")
            .host("h1", "machine-a")
            .host("h2", "machine-b")
            .locus("t", &["h1", "h2"]);
        let hosts = spec.hosts_for(&Name::new("t"));
        assert_eq!(hosts[0].as_str(), "machine-a");
        assert_eq!(hosts[1].as_str(), "machine-b");
    }

    #[test]
    fn unknown_variable_is_error() {
        let err = ConfigSpec::parse("{locus t $nope}", "s").unwrap_err();
        assert!(matches!(err, MfError::Spec(_)));
    }

    #[test]
    fn unknown_directive_is_error() {
        let err = ConfigSpec::parse("{frob a b}", "s").unwrap_err();
        assert!(matches!(err, MfError::Spec(_)));
    }

    #[test]
    fn declared_hosts_dedup() {
        let spec = ConfigSpec::with_startup("s")
            .host("a", "m1")
            .host("b", "m1")
            .host("c", "m2");
        assert_eq!(spec.declared_hosts().len(), 2);
    }
}
