//! Crash recovery: resume a journaled strategy from its install WAL.
//!
//! Recovery follows the redo-log model of [`crate::wal`]:
//!
//! 1. **Restore** — the warehouse state is replaced by `state.snap` (the
//!    pre-run image) and the base-change batch reloads from `changes.snap`;
//!    [`WalLog::open`] parses both once and checks their content digests
//!    against the manifest.
//! 2. **Replay** — completed expressions (those with a durable `CD`/`ID`
//!    record, which must form a strict prefix of the manifest's canonical
//!    order) are redone: a `Comp` merges its journaled ΔV fragment with
//!    zero scan work, an `Inst` re-executes against the restored state and
//!    is verified against the record's row count and post-install digest
//!    (the content digest the view's table keeps up to date).
//! 3. **Gate** — before any fresh work runs, the *suffix* strategy (the
//!    remaining manifest expressions, or an explicit override) is
//!    re-verified against the partially-installed state: the concatenation
//!    of executed prefix and suffix must satisfy C1–C8
//!    ([`uww_vdag::check_vdag_strategy`]). A suffix invalidated by the
//!    partial install — say, one that re-propagates a view the prefix
//!    already installed — is refused with the violated C-rule.
//! 4. **Resume** — the suffix executes fresh through the same window runner
//!    as every other entry point, journaling onto the same log (torn tail
//!    truncated first), and the run commits.
//!
//! An attached publisher sees one window: replayed and resumed installs
//! publish together at the commit, or after an already-committed replay.
//!
//! Replayed expressions appear in the returned
//! [`ExecutionReport`](crate::ExecutionReport) with
//! [`ExprReport::replayed`](crate::ExprReport) set, so the report's
//! `wall()` — the measured update window — includes recovery replay time.

use std::io::Write as _;
use std::path::Path;

use uww_obs as obs;
use uww_vdag::{check_vdag_strategy, Strategy, UpdateExpr};

use crate::engine::exec::Item;
use crate::engine::publish::InstallPhase;
use crate::engine::{ExecOptions, ExecutionReport, ExprReport, Warehouse};
use crate::error::{CoreError, CoreResult};
use crate::wal::{
    decode_pending, sync_dir, write_file, FsyncPolicy, Record, RecordBody, WalConfig, WalLog,
    WalWriter, MANIFEST_FILE,
};

/// What [`recover`] did.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Per-expression report over the whole strategy: replayed prefix
    /// (marked [`ExprReport::replayed`]) followed by the freshly executed
    /// suffix. Its `wall()` includes replay time.
    pub report: ExecutionReport,
    /// Number of `Comp` expressions replayed from journaled fragments.
    pub replayed_comps: usize,
    /// Number of `Inst` expressions redone from the log.
    pub replayed_insts: usize,
    /// Number of suffix expressions executed fresh.
    pub resumed: usize,
    /// True when the log was already committed: the whole run replays and
    /// nothing is appended (recovery is idempotent).
    pub already_committed: bool,
}

/// Recovers a crashed (or committed) run from the WAL directory `dir`,
/// resuming with the remaining manifest expressions. The warehouse must be
/// built over the same VDAG the run was journaled against (fingerprint
/// checked); its current state is discarded in favor of the snapshot.
pub fn recover(w: &mut Warehouse, dir: &Path) -> CoreResult<RecoveryOutcome> {
    recover_with(w, dir, None)
}

/// [`recover`] with an explicit suffix-strategy override: instead of the
/// remaining manifest expressions, resume with `suffix` (which must pass
/// the recovery gate against the already-executed prefix). The manifest is
/// rewritten to the new plan so a crash *during* recovery stays resumable.
pub fn recover_with(
    w: &mut Warehouse,
    dir: &Path,
    suffix: Option<&[UpdateExpr]>,
) -> CoreResult<RecoveryOutcome> {
    let mut log = WalLog::open(dir)?;
    if log.manifest.vdag_fingerprint != w.vdag().fingerprint() {
        return Err(CoreError::Wal(format!(
            "VDAG fingerprint mismatch: log {:016x}, warehouse {:016x}",
            log.manifest.vdag_fingerprint,
            w.vdag().fingerprint()
        )));
    }
    let manifest_exprs: Vec<(usize, UpdateExpr)> = log
        .manifest
        .exprs
        .iter()
        .map(|me| Ok((me.stage, me.to_expr(w.vdag())?)))
        .collect::<CoreResult<_>>()?;

    // Collect the completed prefix: Done records must land in strict
    // manifest order (the executors journal them that way; anything else is
    // damage or tampering).
    let mut done: Vec<&Record> = Vec::new();
    for r in &log.records {
        let idx = match &r.body {
            RecordBody::CompDone { idx, .. } | RecordBody::InstDone { idx, .. } => *idx,
            _ => continue,
        };
        if idx != done.len() {
            return Err(CoreError::WalCorrupt {
                record: r.seq,
                detail: format!(
                    "completion of expr {idx} out of order (expected {})",
                    done.len()
                ),
            });
        }
        let Some((_, expr)) = manifest_exprs.get(idx) else {
            return Err(CoreError::WalCorrupt {
                record: r.seq,
                detail: format!("completion of expr {idx} beyond the manifest"),
            });
        };
        let kind_matches = matches!(
            (&r.body, expr),
            (RecordBody::CompDone { .. }, UpdateExpr::Comp { .. })
                | (RecordBody::InstDone { .. }, UpdateExpr::Inst(_))
        );
        if !kind_matches {
            return Err(CoreError::WalCorrupt {
                record: r.seq,
                detail: format!("record kind does not match manifest expr {idx}"),
            });
        }
        done.push(r);
    }
    if log.committed && done.len() != manifest_exprs.len() {
        return Err(CoreError::WalCorrupt {
            record: log.next_seq.saturating_sub(1),
            detail: format!(
                "log committed with only {}/{} expressions complete",
                done.len(),
                manifest_exprs.len()
            ),
        });
    }

    // Restore the durable image and the change batch, parsed and verified
    // once by `WalLog::open`.
    w.restore_state(std::mem::take(&mut log.state))?;
    w.load_changes(std::mem::take(&mut log.changes))?;

    // Gate the suffix before touching anything else: the concatenation of
    // the executed prefix and the planned suffix must be a correct strategy
    // for the (about to be) partially-installed state.
    let prefix: Vec<UpdateExpr> = manifest_exprs[..done.len()]
        .iter()
        .map(|(_, e)| e.clone())
        .collect();
    let default_suffix: Vec<UpdateExpr> = manifest_exprs[done.len()..]
        .iter()
        .map(|(_, e)| e.clone())
        .collect();
    let suffix: Vec<UpdateExpr> = match suffix {
        Some(s) => s.to_vec(),
        None => default_suffix.clone(),
    };
    let mut full = prefix;
    full.extend(suffix.iter().cloned());
    check_vdag_strategy(w.vdag(), &Strategy::from_exprs(full))?;

    // Replay the completed prefix.
    let mut run_span = obs::span(obs::SpanKind::Run, "recover");
    run_span.attr_u64("replayed", done.len() as u64);
    let mut report = ExecutionReport::default();
    let publisher = w.publisher().cloned();
    let mut phase = InstallPhase::new(publisher.as_ref());
    let mut replayed_comps = 0usize;
    let mut replayed_insts = 0usize;
    for (i, d) in done.iter().enumerate() {
        let (_, expr) = &manifest_exprs[i];
        let mut span = {
            let g = w.vdag();
            obs::span_dyn(obs::SpanKind::Replay, || expr.display(g).to_string())
        };
        crate::engine::exec::expr_attrs(&mut span, w.vdag(), expr);
        let t0 = std::time::Instant::now();
        let start_meter = *w.meter();
        match &d.body {
            RecordBody::CompDone {
                digest, payload, ..
            } => {
                if uww_relational::digest64(payload) != *digest {
                    return Err(CoreError::WalCorrupt {
                        record: d.seq,
                        detail: "fragment payload digest mismatch".to_string(),
                    });
                }
                let fragment = decode_pending(payload)?;
                let name = w.vdag().name(expr.subject()).to_string();
                w.merge_fragment(&name, fragment)?;
                w.meter_mut().comp_expressions += 1;
                replayed_comps += 1;
            }
            RecordBody::InstDone {
                delta_len,
                post_digest,
                ..
            } => {
                let installed = w.exec_inst(expr.subject(), &mut phase)?;
                let name = w.vdag().name(expr.subject()).to_string();
                let actual = w.table(&name)?.digest();
                if installed != *delta_len || actual != *post_digest {
                    return Err(CoreError::WalCorrupt {
                        record: d.seq,
                        detail: format!(
                            "replay of Inst({name}) diverged: {installed} rows \
                             (logged {delta_len}), extent digest {actual:016x} \
                             (logged {post_digest:016x})"
                        ),
                    });
                }
                replayed_insts += 1;
            }
            _ => unreachable!("done list only holds Done records"),
        }
        let work = w.meter().since(&start_meter);
        crate::engine::exec::meter_attrs(&mut span, &work);
        drop(span);
        report.per_expr.push(ExprReport {
            expr: expr.clone(),
            work,
            wall: t0.elapsed(),
            replayed: true,
        });
    }

    if log.committed {
        w.publish_window(phase)?;
        return Ok(RecoveryOutcome {
            report,
            replayed_comps,
            replayed_insts,
            resumed: 0,
            already_committed: true,
        });
    }

    // An overridden suffix changes the plan: rewrite the manifest so the
    // continued log stays coherent (and a crash during recovery remains
    // recoverable against the *new* plan). The rewrite is a temp file renamed
    // over the old one and made durable before any suffix record is: a torn
    // manifest would strand the window, and suffix records outliving the old
    // manifest would name expressions its plan does not have.
    let cfg = WalConfig::new(dir).with_fsync(log.manifest.fsync);
    let suffix_stage = match done.len() {
        0 => 0,
        n => manifest_exprs[n - 1].0,
    };
    let overridden = suffix != default_suffix;
    if overridden {
        let mut manifest = log.manifest.clone();
        manifest.exprs.truncate(done.len());
        for e in &suffix {
            manifest.exprs.push(crate::wal::ManifestExpr::from_expr(
                w.vdag(),
                suffix_stage,
                e,
            ));
        }
        write_file(&cfg, MANIFEST_FILE, |out| {
            out.write_all(manifest.render().as_bytes())
        })?;
        if cfg.fsync == FsyncPolicy::Always {
            sync_dir(dir)?;
        }
    }

    // Execute the suffix fresh through the window runner, journaling onto
    // the same log; the runner commits it.
    let writer = WalWriter::resume(&cfg, &log)?;
    let last_stage = (!done.is_empty()).then_some(suffix_stage);
    let items: Vec<Item<'_>> = suffix
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let idx = done.len() + i;
            let stage = if overridden {
                suffix_stage
            } else {
                manifest_exprs[idx].0
            };
            (idx, stage, e)
        })
        .collect();
    let resumed = items.len();
    // Resumed expressions run under default options: the fragment bytes and
    // logical meter are independent of the partition count and cache scope,
    // so replay digests verify regardless of the options the crashed run
    // used.
    let fresh = w.run_window(
        &items,
        None,
        &ExecOptions::default(),
        Some((last_stage, writer, phase)),
        None,
    )?;
    report.per_expr.extend(fresh.report.per_expr);
    Ok(RecoveryOutcome {
        report,
        replayed_comps,
        replayed_insts,
        resumed,
        already_committed: false,
    })
}
