//! Certificate types and their JSON wire format.
//!
//! A certificate is *self-contained*: it repeats the LP (bounds, rows,
//! objective) the untrusted solver claims to have solved, so the checker
//! needs no access to the original model or encoder. Whether the encoded LP
//! faithfully represents the network property remains trusted — the
//! certificate discharges the *solver*, not the encoder (see
//! ARCHITECTURE.md §10 for the exact trust boundary).
//!
//! All numbers are `f64`s serialized as plain JSON numbers; `raven-json`
//! prints the shortest round-tripping decimal, so every value crosses the
//! wire bit-exactly. Infinities (open variable bounds, branch fixes, the
//! claimed bound of an infeasible problem) are the strings `"inf"` /
//! `"-inf"`, since JSON has no non-finite numbers.

use raven_json::Json;

/// Optimization direction of a certified LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertDirection {
    /// The claimed bound is a lower bound on the minimum.
    Minimize,
    /// The claimed bound is an upper bound on the maximum.
    Maximize,
}

/// Row sense of a certified constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertSense {
    /// `Σ coeffs ≤ rhs`.
    Le,
    /// `Σ coeffs ≥ rhs`.
    Ge,
    /// `Σ coeffs = rhs`.
    Eq,
}

/// One constraint row: `Σ_j coeffs[j] · x_j (sense) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct CertRow {
    /// Row sense.
    pub sense: CertSense,
    /// Right-hand side.
    pub rhs: f64,
    /// Sparse `(variable, coefficient)` terms.
    pub coeffs: Vec<(usize, f64)>,
}

/// The LP the untrusted solver claims to have bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct CertProblem {
    /// Optimization direction.
    pub direction: CertDirection,
    /// Per-variable lower bounds (may be `-inf`).
    pub lower: Vec<f64>,
    /// Per-variable upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    /// Indices of integer-constrained variables.
    pub integer: Vec<usize>,
    /// Constraint rows.
    pub rows: Vec<CertRow>,
    /// Sparse objective `(variable, coefficient)` terms.
    pub objective: Vec<(usize, f64)>,
}

/// Proof attached to one branch-and-bound leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafProof {
    /// Weak-duality bound: sign-valid row duals whose exact dual objective
    /// over the leaf box must not beat the claimed bound.
    Bound {
        /// One dual per row, user orientation.
        duals: Vec<f64>,
    },
    /// Farkas infeasibility ray: sign-valid multipliers whose aggregated
    /// row is unsatisfiable over the leaf box.
    Farkas {
        /// One multiplier per row.
        ray: Vec<f64>,
    },
}

/// One leaf of a certified branch-and-bound tree.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchLeaf {
    /// Cumulative `(var, lo, hi)` bound fixes on the root-to-leaf path, in
    /// branching order (`±inf` for the open side of each branch).
    pub fixes: Vec<(usize, f64, f64)>,
    /// The leaf's bound or infeasibility proof.
    pub proof: LeafProof,
}

/// Proof that the claimed bound holds for [`CertProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpProof {
    /// Single-LP weak-duality bound.
    Bound {
        /// One dual per row, user orientation.
        duals: Vec<f64>,
    },
    /// The LP itself is infeasible.
    Farkas {
        /// One multiplier per row.
        ray: Vec<f64>,
    },
    /// Branch-and-bound tree: the leaves jointly cover every integer
    /// assignment and each carries its own bound/infeasibility proof.
    Branch {
        /// Leaves in exploration order.
        leaves: Vec<BranchLeaf>,
    },
}

/// A solver-tier certificate: LP + claimed bound + proof.
#[derive(Debug, Clone, PartialEq)]
pub struct LpCertificate {
    /// The LP being bounded.
    pub problem: CertProblem,
    /// The bound the proof establishes, user orientation: the optimum is
    /// `≤ claimed_bound` for Maximize, `≥` for Minimize. `-inf`/`+inf`
    /// respectively when the problem is claimed infeasible.
    pub claimed_bound: f64,
    /// The replayable proof.
    pub proof: LpProof,
}

/// One certified activation relaxation: `ls·x + li ≤ act(x) ≤ us·x + ui`
/// on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisNeuron {
    /// Activation kind: `"relu"`, `"leakyrelu"`, `"hardtanh"` (checked
    /// exactly) or `"sigmoid"` / `"tanh"` (counted as trusted).
    pub act: String,
    /// Negative-side slope for `"leakyrelu"`; `0` otherwise.
    pub alpha: f64,
    /// Pre-activation lower bound.
    pub lo: f64,
    /// Pre-activation upper bound.
    pub hi: f64,
    /// Lower bounding line slope.
    pub lower_slope: f64,
    /// Lower bounding line intercept.
    pub lower_intercept: f64,
    /// Upper bounding line slope.
    pub upper_slope: f64,
    /// Upper bounding line intercept.
    pub upper_intercept: f64,
}

/// Analysis-tier certificate: the per-neuron relaxations behind a
/// DeepPoly/DiffPoly bound.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisCertificate {
    /// Per-neuron bounding lines, checked against the activation exactly.
    pub neurons: Vec<AnalysisNeuron>,
    /// Neurons whose activation is not piecewise-linear (sigmoid/tanh):
    /// present in the analysis but not replayable exactly, so they remain
    /// trusted and are only counted.
    pub trusted: usize,
}

/// A complete verdict certificate, as emitted next to (never inside) the
/// canonical verdict JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Property kind: `"uap"`, `"mono"`, or `"lp"` for bare solver runs.
    pub kind: String,
    /// The verdict tier being certified: `"milp"`, `"lp"`, or `"analysis"`.
    pub tier: String,
    /// Whether the certified verdict came from the degradation ladder.
    pub degraded: bool,
    /// Solver-tier proof (present for the MILP/LP tiers).
    pub lp: Option<LpCertificate>,
    /// Analysis-tier relaxation records (present for analysis-tier verdicts
    /// and alongside solver tiers when the emitter includes them).
    pub analysis: Option<AnalysisCertificate>,
}

/// Serializes a possibly non-finite `f64` (`"inf"` / `"-inf"` sentinels).
fn num(x: f64) -> Json {
    if x == f64::INFINITY {
        Json::from("inf")
    } else if x == f64::NEG_INFINITY {
        Json::from("-inf")
    } else {
        Json::from(x)
    }
}

/// Parses a number or an infinity sentinel.
fn parse_num(j: &Json, what: &str) -> Result<f64, String> {
    if let Some(x) = j.as_f64() {
        return Ok(x);
    }
    match j.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        _ => Err(format!("{what}: expected number or inf sentinel")),
    }
}

fn num_list(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| num(x)).collect())
}

fn parse_num_list(j: &Json, what: &str) -> Result<Vec<f64>, String> {
    j.as_array()
        .ok_or_else(|| format!("{what}: expected array"))?
        .iter()
        .map(|v| parse_num(v, what))
        .collect()
}

fn sparse(terms: &[(usize, f64)]) -> Json {
    Json::Arr(
        terms
            .iter()
            .map(|&(j, c)| Json::Arr(vec![Json::from(j), num(c)]))
            .collect(),
    )
}

fn parse_sparse(j: &Json, what: &str) -> Result<Vec<(usize, f64)>, String> {
    j.as_array()
        .ok_or_else(|| format!("{what}: expected array"))?
        .iter()
        .map(|pair| {
            let items = pair
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("{what}: expected [index, coeff] pair"))?;
            let idx = items[0]
                .as_usize()
                .ok_or_else(|| format!("{what}: bad index"))?;
            Ok((idx, parse_num(&items[1], what)?))
        })
        .collect()
}

fn proof_leaf_json(proof: &LeafProof) -> Json {
    match proof {
        LeafProof::Bound { duals } => {
            Json::obj([("type", Json::from("bound")), ("duals", num_list(duals))])
        }
        LeafProof::Farkas { ray } => {
            Json::obj([("type", Json::from("farkas")), ("ray", num_list(ray))])
        }
    }
}

fn parse_leaf_proof(j: &Json) -> Result<LeafProof, String> {
    match j.get("type").and_then(Json::as_str) {
        Some("bound") => Ok(LeafProof::Bound {
            duals: parse_num_list(j.get("duals").ok_or("proof: missing duals")?, "proof.duals")?,
        }),
        Some("farkas") => Ok(LeafProof::Farkas {
            ray: parse_num_list(j.get("ray").ok_or("proof: missing ray")?, "proof.ray")?,
        }),
        _ => Err("proof: unknown type".to_string()),
    }
}

impl LpCertificate {
    /// JSON encoding (see the module docs for the number conventions).
    pub fn to_json(&self) -> Json {
        let p = &self.problem;
        let direction = match p.direction {
            CertDirection::Minimize => "min",
            CertDirection::Maximize => "max",
        };
        let rows = Json::Arr(
            p.rows
                .iter()
                .map(|r| {
                    Json::obj([
                        (
                            "sense",
                            Json::from(match r.sense {
                                CertSense::Le => "le",
                                CertSense::Ge => "ge",
                                CertSense::Eq => "eq",
                            }),
                        ),
                        ("rhs", num(r.rhs)),
                        ("coeffs", sparse(&r.coeffs)),
                    ])
                })
                .collect(),
        );
        let proof = match &self.proof {
            LpProof::Bound { duals } => {
                Json::obj([("type", Json::from("bound")), ("duals", num_list(duals))])
            }
            LpProof::Farkas { ray } => {
                Json::obj([("type", Json::from("farkas")), ("ray", num_list(ray))])
            }
            LpProof::Branch { leaves } => Json::obj([
                ("type", Json::from("branch")),
                (
                    "leaves",
                    Json::Arr(
                        leaves
                            .iter()
                            .map(|leaf| {
                                Json::obj([
                                    (
                                        "fixes",
                                        Json::Arr(
                                            leaf.fixes
                                                .iter()
                                                .map(|&(v, lo, hi)| {
                                                    Json::Arr(vec![Json::from(v), num(lo), num(hi)])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    ("proof", proof_leaf_json(&leaf.proof)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        Json::obj([
            ("direction", Json::from(direction)),
            ("claimed_bound", num(self.claimed_bound)),
            ("lower", num_list(&p.lower)),
            ("upper", num_list(&p.upper)),
            (
                "integer",
                Json::Arr(p.integer.iter().map(|&i| Json::from(i)).collect()),
            ),
            ("rows", rows),
            ("objective", sparse(&p.objective)),
            ("proof", proof),
        ])
    }

    /// Decodes the [`LpCertificate::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let direction = match j.get("direction").and_then(Json::as_str) {
            Some("min") => CertDirection::Minimize,
            Some("max") => CertDirection::Maximize,
            _ => return Err("lp: bad direction".to_string()),
        };
        let claimed_bound = parse_num(
            j.get("claimed_bound").ok_or("lp: missing claimed_bound")?,
            "claimed_bound",
        )?;
        let lower = parse_num_list(j.get("lower").ok_or("lp: missing lower")?, "lower")?;
        let upper = parse_num_list(j.get("upper").ok_or("lp: missing upper")?, "upper")?;
        let integer = j
            .get("integer")
            .and_then(Json::as_array)
            .ok_or("lp: missing integer")?
            .iter()
            .map(|v| v.as_usize().ok_or_else(|| "integer: bad index".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = j
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("lp: missing rows")?
            .iter()
            .map(|r| {
                let sense = match r.get("sense").and_then(Json::as_str) {
                    Some("le") => CertSense::Le,
                    Some("ge") => CertSense::Ge,
                    Some("eq") => CertSense::Eq,
                    _ => return Err("row: bad sense".to_string()),
                };
                Ok(CertRow {
                    sense,
                    rhs: parse_num(r.get("rhs").ok_or("row: missing rhs")?, "rhs")?,
                    coeffs: parse_sparse(r.get("coeffs").ok_or("row: missing coeffs")?, "coeffs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let objective = parse_sparse(
            j.get("objective").ok_or("lp: missing objective")?,
            "objective",
        )?;
        let proof_json = j.get("proof").ok_or("lp: missing proof")?;
        let proof = match proof_json.get("type").and_then(Json::as_str) {
            Some("bound") | Some("farkas") => match parse_leaf_proof(proof_json)? {
                LeafProof::Bound { duals } => LpProof::Bound { duals },
                LeafProof::Farkas { ray } => LpProof::Farkas { ray },
            },
            Some("branch") => {
                let leaves = proof_json
                    .get("leaves")
                    .and_then(Json::as_array)
                    .ok_or("branch: missing leaves")?
                    .iter()
                    .map(|leaf| {
                        let fixes = leaf
                            .get("fixes")
                            .and_then(Json::as_array)
                            .ok_or("leaf: missing fixes")?
                            .iter()
                            .map(|f| {
                                let items = f
                                    .as_array()
                                    .filter(|a| a.len() == 3)
                                    .ok_or("leaf: expected [var, lo, hi] fix")?;
                                let v = items[0].as_usize().ok_or("fix: bad var")?;
                                Ok((
                                    v,
                                    parse_num(&items[1], "fix.lo")?,
                                    parse_num(&items[2], "fix.hi")?,
                                ))
                            })
                            .collect::<Result<Vec<_>, String>>()?;
                        Ok(BranchLeaf {
                            fixes,
                            proof: parse_leaf_proof(
                                leaf.get("proof").ok_or("leaf: missing proof")?,
                            )?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                LpProof::Branch { leaves }
            }
            _ => return Err("proof: unknown type".to_string()),
        };
        Ok(Self {
            problem: CertProblem {
                direction,
                lower,
                upper,
                integer,
                rows,
                objective,
            },
            claimed_bound,
            proof,
        })
    }
}

impl AnalysisCertificate {
    /// JSON encoding with compact per-neuron keys (certificates can carry
    /// thousands of neurons).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "neurons",
                Json::Arr(
                    self.neurons
                        .iter()
                        .map(|n| {
                            Json::obj([
                                ("act", Json::from(n.act.as_str())),
                                ("alpha", num(n.alpha)),
                                ("lo", num(n.lo)),
                                ("hi", num(n.hi)),
                                ("ls", num(n.lower_slope)),
                                ("li", num(n.lower_intercept)),
                                ("us", num(n.upper_slope)),
                                ("ui", num(n.upper_intercept)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trusted", Json::from(self.trusted)),
        ])
    }

    /// Decodes the [`AnalysisCertificate::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let neurons = j
            .get("neurons")
            .and_then(Json::as_array)
            .ok_or("analysis: missing neurons")?
            .iter()
            .map(|n| {
                let field = |key: &str| -> Result<f64, String> {
                    parse_num(
                        n.get(key).ok_or_else(|| format!("neuron: missing {key}"))?,
                        key,
                    )
                };
                Ok(AnalysisNeuron {
                    act: n
                        .get("act")
                        .and_then(Json::as_str)
                        .ok_or("neuron: missing act")?
                        .to_string(),
                    alpha: field("alpha")?,
                    lo: field("lo")?,
                    hi: field("hi")?,
                    lower_slope: field("ls")?,
                    lower_intercept: field("li")?,
                    upper_slope: field("us")?,
                    upper_intercept: field("ui")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let trusted = j
            .get("trusted")
            .and_then(Json::as_usize)
            .ok_or("analysis: missing trusted")?;
        Ok(Self { neurons, trusted })
    }
}

impl Certificate {
    /// JSON encoding of the full certificate.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version", Json::from(1.0)),
            ("kind", Json::from(self.kind.as_str())),
            ("tier", Json::from(self.tier.as_str())),
            ("degraded", Json::from(self.degraded)),
        ];
        if let Some(lp) = &self.lp {
            fields.push(("lp", lp.to_json()));
        }
        if let Some(analysis) = &self.analysis {
            fields.push(("analysis", analysis.to_json()));
        }
        Json::obj(fields)
    }

    /// Decodes the [`Certificate::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if j.get("version").and_then(Json::as_f64) != Some(1.0) {
            return Err("certificate: unsupported version".to_string());
        }
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("certificate: missing kind")?
            .to_string();
        let tier = j
            .get("tier")
            .and_then(Json::as_str)
            .ok_or("certificate: missing tier")?
            .to_string();
        let degraded = j
            .get("degraded")
            .and_then(Json::as_bool)
            .ok_or("certificate: missing degraded")?;
        let lp = match j.get("lp") {
            Some(v) => Some(LpCertificate::from_json(v)?),
            None => None,
        };
        let analysis = match j.get("analysis") {
            Some(v) => Some(AnalysisCertificate::from_json(v)?),
            None => None,
        };
        if lp.is_none() && analysis.is_none() {
            return Err("certificate: no lp or analysis section".to_string());
        }
        Ok(Self {
            kind,
            tier,
            degraded,
            lp,
            analysis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lp() -> LpCertificate {
        LpCertificate {
            problem: CertProblem {
                direction: CertDirection::Maximize,
                lower: vec![0.0, f64::NEG_INFINITY],
                upper: vec![1.0, f64::INFINITY],
                integer: vec![0],
                rows: vec![CertRow {
                    sense: CertSense::Le,
                    rhs: 0.1 + 0.2,
                    coeffs: vec![(0, 1.5), (1, -2.25)],
                }],
                objective: vec![(0, 1.0), (1, 0.125)],
            },
            claimed_bound: 1.625,
            proof: LpProof::Branch {
                leaves: vec![
                    BranchLeaf {
                        fixes: vec![(0, f64::NEG_INFINITY, 0.0)],
                        proof: LeafProof::Bound { duals: vec![0.25] },
                    },
                    BranchLeaf {
                        fixes: vec![(0, 1.0, f64::INFINITY)],
                        proof: LeafProof::Farkas { ray: vec![-1.0] },
                    },
                ],
            },
        }
    }

    #[test]
    fn lp_certificate_round_trips_bit_exactly() {
        let cert = Certificate {
            kind: "uap".to_string(),
            tier: "milp".to_string(),
            degraded: false,
            lp: Some(sample_lp()),
            analysis: Some(AnalysisCertificate {
                neurons: vec![AnalysisNeuron {
                    act: "relu".to_string(),
                    alpha: 0.0,
                    lo: -1.0,
                    hi: 0.3,
                    lower_slope: 0.0,
                    lower_intercept: 0.0,
                    upper_slope: 0.3 / 1.3,
                    upper_intercept: 0.3 / 1.3,
                }],
                trusted: 2,
            }),
        };
        let text = cert.to_json().to_string();
        let back = Certificate::from_json(&raven_json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(cert, back);
        // Numbers survive a *second* trip too (shortest-round-trip floats).
        let again =
            Certificate::from_json(&raven_json::Json::parse(&back.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(cert, again);
    }

    #[test]
    fn malformed_certificates_are_descriptive() {
        let err = Certificate::from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = Certificate::from_json(
            &Json::parse(r#"{"version":1,"kind":"lp","tier":"lp","degraded":false}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("no lp or analysis"), "{err}");
        // A "uap-merge" certificate (the merged proof of the removed
        // input-split dispatch) must be refused as malformed, never
        // accepted on the strength of its embedded sub-box proofs.
        let part = Certificate {
            kind: "uap".to_string(),
            tier: "lp".to_string(),
            degraded: false,
            lp: Some(sample_lp()),
            analysis: None,
        };
        let merged = Json::obj([
            ("version", Json::from(1.0)),
            ("kind", Json::from("uap-merge")),
            ("k", Json::from(2usize)),
            ("eps", Json::from(0.02)),
            (
                "claims",
                Json::Arr(vec![Json::obj([
                    ("worst_case_hamming", Json::from(0.0)),
                    ("individually_verified", Json::from(2usize)),
                    ("tier", Json::from("lp")),
                    ("degraded", Json::from(false)),
                ])]),
            ),
            (
                "merged",
                Json::obj([
                    ("worst_case_hamming", Json::from(0.0)),
                    ("individually_verified", Json::from(2usize)),
                    ("worst_case_accuracy", Json::from(1.0)),
                ]),
            ),
            ("shards", Json::Arr(vec![part.to_json()])),
        ]);
        let err = crate::check_certificate_json(&merged).unwrap_err();
        assert!(matches!(err, crate::CheckError::Malformed(_)), "{err}");
    }
}
