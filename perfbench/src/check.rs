//! Independent correctness references: the paper's Table 2 verdicts for
//! the corpus and the documented evidence for every attack.

use corpus::attacks::{Attack, Evidence};
use corpus::Addon;
use jssig::{FlowLattice, FlowType, Signature};

/// A corpus addon or an attack-gallery sample.
pub enum Known {
    Addon(Addon),
    Attack(Attack),
}

impl Known {
    pub fn all() -> Vec<Known> {
        let mut out: Vec<Known> = corpus::addons().into_iter().map(Known::Addon).collect();
        out.extend(corpus::attacks::attacks().into_iter().map(Known::Attack));
        out
    }

    pub fn name(&self) -> &'static str {
        match self {
            Known::Addon(a) => a.name,
            Known::Attack(a) => a.name,
        }
    }

    pub fn source(&self) -> &'static str {
        match self {
            Known::Addon(a) => a.source,
            Known::Attack(a) => a.source,
        }
    }

    /// Checks a signature against the paper's verdict (addons) or the
    /// attack's documented evidence.
    pub fn check(&self, sig: &Signature) -> Result<(), String> {
        match self {
            Known::Addon(a) => {
                let cmp = jssig::compare(sig, &a.manual, a.real_extra_flow, a.real_extra_sink);
                if cmp.verdict == a.paper_verdict {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: verdict {} but the paper says {}",
                        a.name, cmp.verdict, a.paper_verdict
                    ))
                }
            }
            Known::Attack(a) => a
                .evidence
                .iter()
                .try_for_each(|ev| check_evidence(sig, ev))
                .map_err(|e| format!("{}: {e}", a.name)),
        }
    }
}

fn domain_has(d: &jsdomains::Pre, needle: &str) -> bool {
    d.known_text().is_some_and(|t| t.contains(needle))
}

fn check_evidence(sig: &Signature, ev: &Evidence) -> Result<(), String> {
    let ok = match ev {
        Evidence::Flow {
            source,
            domain,
            at_least,
        } => sig.flows.iter().any(|e| {
            e.source == *source
                && domain_has(&e.sink.domain, domain)
                && FlowLattice::paper().stronger_or_equal(e.flow, FlowType(at_least - 1))
        }),
        Evidence::Api(name) => sig.apis.contains(*name),
        Evidence::Sink { kind, domain } => sig
            .sinks
            .iter()
            .any(|s| s.kind == *kind && domain_has(&s.domain, domain)),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("missing evidence {ev:?}"))
    }
}
