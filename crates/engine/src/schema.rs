//! Versioned on-disk formats for crash-safe, sharded batch execution.
//!
//! `tpi batch` persists three artifact kinds: the **checkpoint** (one
//! JSONL job-result line per finished job, preceded by a header line),
//! the **summary** (the final JSON object `tpi batch` prints), and the
//! **metrics snapshot** (`--metrics-out`, the obs registry rendered as
//! JSON). This module owns all three formats — parsing, writing and
//! versioning — so that independently produced files can be recombined
//! safely by `tpi merge` with zero coordination between the producers.
//!
//! # The checkpoint format
//!
//! A checkpoint is a UTF-8 JSONL stream whose first line is a *header*:
//!
//! ```json
//! {"tpi_checkpoint":true,"format_version":1,
//!  "manifest_hash":"fnv1a:91cd8a2f3c1b5e77","jobs":12,
//!  "shard_index":2,"shard_count":3}
//! ```
//!
//! followed by job-result lines in manifest order (each carrying a
//! `"job"` index and a terminal `"status"`). The header pins everything
//! a reader needs to decide whether two checkpoints belong together:
//!
//! * `format_version` — parsing is **strict on unknown versions**: a
//!   reader that does not know the version refuses the file instead of
//!   guessing at its semantics.
//! * `manifest_hash` — FNV-1a over the canonical rendering of the
//!   parsed manifest, so checkpoints of *different* manifests can never
//!   be merged (and a resume against the wrong manifest is caught).
//! * `jobs` — the manifest's total job count (not the shard's share).
//! * `shard_index`/`shard_count` — which deterministic slice of the
//!   manifest this checkpoint covers (`1/1` for an unsharded run).
//!
//! # Crash tolerance
//!
//! Writers go through [`CheckpointWriter`]: the header is written to a
//! sibling temp file, fsynced and atomically renamed into place, so a
//! crash during creation never leaves a half-written header; job lines
//! are appended and fsynced at every contiguous-prefix flush. Readers
//! ([`parse_checkpoint`]) tolerate a torn trailing line — the valid
//! prefix is recovered and the tear is reported, never a hard failure.
//!
//! # Sharding and merging
//!
//! [`ShardSpec`] partitions manifest indices round-robin (`job i`
//! belongs to shard `(i mod n) + 1`), a pure function of the index, so
//! `n` processes split one manifest with **no coordinator**.
//! [`merge_checkpoints`] validates a shard set (same version, same
//! manifest, disjoint and complete shards, every owned job finished)
//! and recombines per-job results in manifest order. Volatile
//! per-run fields (wall clocks, attempt counts) are stripped, so the
//! merged artifact is **byte-deterministic**: any complete shard set of
//! a manifest merges to the same bytes as an uninterrupted
//! single-process run of the same manifest.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tpi_obs::{HistogramSnapshot, MetricValue, Snapshot};

use crate::batch::BatchSummary;
use crate::json::Json;

/// The checkpoint/summary format version this build reads and writes.
///
/// Readers are strict: a file declaring any other version is refused
/// with an error naming both versions.
pub const FORMAT_VERSION: u64 = 1;

/// Keys a job line may carry that vary between byte-identical reruns
/// (wall clocks, retry counts, scheduling artifacts). [`canonical_line`]
/// strips them so merged outputs are deterministic.
pub const VOLATILE_LINE_KEYS: &[&str] = &["millis", "attempts", "worker_exited"];

/// FNV-1a over `bytes` (the same construction the DP memo uses; kept
/// dependency-free on purpose).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content hash of a parsed manifest: FNV-1a over its canonical JSON
/// rendering (sorted keys, no whitespace), so formatting differences in
/// the manifest file do not change the hash.
pub fn manifest_hash(manifest: &Json) -> String {
    format!("fnv1a:{:016x}", fnv1a(manifest.to_string().as_bytes()))
}

/// One deterministic slice of a manifest: shard `index` of `count`
/// (1-based). Job `i` belongs to shard `(i mod count) + 1` — a pure
/// function of the index, so `count` processes given the same manifest
/// partition it identically with no coordination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index (`1 ≤ index ≤ count`).
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// The unsharded run: shard 1 of 1 (owns every job).
    pub const WHOLE: ShardSpec = ShardSpec { index: 1, count: 1 };

    /// Parses `"i/n"` (e.g. `"2/3"`), validating `1 ≤ i ≤ n`.
    ///
    /// # Errors
    ///
    /// A description of the malformed or out-of-range spec.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec `{s}` (expected i/n, e.g. 2/3)"))?;
        let index: u32 = i.parse().map_err(|_| format!("bad shard index `{i}`"))?;
        let count: u32 = n.parse().map_err(|_| format!("bad shard count `{n}`"))?;
        if count == 0 || index == 0 || index > count {
            return Err(format!(
                "shard index out of range: `{s}` (need 1 ≤ i ≤ n, n ≥ 1)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Does this shard own manifest job `job_index`?
    pub fn owns(&self, job_index: usize) -> bool {
        job_index % self.count as usize == (self.index - 1) as usize
    }

    /// The manifest indices this shard owns, ascending.
    pub fn owned_indices(&self, total_jobs: usize) -> Vec<usize> {
        (0..total_jobs).filter(|&i| self.owns(i)).collect()
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The first line of a checkpoint file: everything a reader needs to
/// validate a resume or a merge (see the module docs for the wire form).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointHeader {
    /// Format version ([`FORMAT_VERSION`] when written by this build).
    pub format_version: u64,
    /// [`manifest_hash`] of the manifest this checkpoint belongs to.
    pub manifest_hash: String,
    /// Total jobs in the manifest (not this shard's share).
    pub jobs: usize,
    /// Which slice of the manifest this checkpoint covers.
    pub shard: ShardSpec,
}

impl CheckpointHeader {
    /// The header for a run of `manifest` covering `shard`.
    pub fn new(manifest: &Json, jobs: usize, shard: ShardSpec) -> CheckpointHeader {
        CheckpointHeader {
            format_version: FORMAT_VERSION,
            manifest_hash: manifest_hash(manifest),
            jobs,
            shard,
        }
    }

    /// Is this parsed line a checkpoint header?
    pub fn is_header(line: &Json) -> bool {
        line.get("tpi_checkpoint").and_then(Json::as_bool) == Some(true)
    }

    /// The header as its one-line JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tpi_checkpoint", Json::from(true)),
            ("format_version", Json::from(self.format_version)),
            ("manifest_hash", Json::from(self.manifest_hash.as_str())),
            ("jobs", Json::from(self.jobs)),
            ("shard_index", Json::from(u64::from(self.shard.index))),
            ("shard_count", Json::from(u64::from(self.shard.count))),
        ])
    }

    /// Parses a header line, strict on unknown versions and malformed
    /// fields.
    ///
    /// # Errors
    ///
    /// Names the offending field; an unknown `format_version` is
    /// refused explicitly (never guessed at).
    pub fn from_json(line: &Json) -> Result<CheckpointHeader, String> {
        if !Self::is_header(line) {
            return Err("not a checkpoint header (no tpi_checkpoint marker)".to_string());
        }
        let version = line
            .get("format_version")
            .and_then(Json::as_u64)
            .ok_or("checkpoint header has no integer 'format_version'")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported checkpoint format_version {version} (this build reads \
                 version {FORMAT_VERSION}); refusing to guess at its semantics"
            ));
        }
        let manifest_hash = line
            .get("manifest_hash")
            .and_then(Json::as_str)
            .ok_or("checkpoint header has no 'manifest_hash'")?
            .to_string();
        let jobs = line
            .get("jobs")
            .and_then(Json::as_u64)
            .ok_or("checkpoint header has no integer 'jobs'")? as usize;
        let index = line
            .get("shard_index")
            .and_then(Json::as_u64)
            .ok_or("checkpoint header has no integer 'shard_index'")?;
        let count = line
            .get("shard_count")
            .and_then(Json::as_u64)
            .ok_or("checkpoint header has no integer 'shard_count'")?;
        let (index, count) = (
            u32::try_from(index).map_err(|_| "shard_index out of range")?,
            u32::try_from(count).map_err(|_| "shard_count out of range")?,
        );
        if count == 0 || index == 0 || index > count {
            return Err(format!(
                "invalid shard {index}/{count} in checkpoint header"
            ));
        }
        Ok(CheckpointHeader {
            format_version: version,
            manifest_hash,
            jobs,
            shard: ShardSpec { index, count },
        })
    }
}

/// A parsed checkpoint: the header (absent in pre-versioning legacy
/// files), every parsed body line, and what was recovered around torn
/// writes.
#[derive(Debug, Default)]
pub struct CheckpointFile {
    /// The header, when the file has one. Legacy (pre-schema) JSONL
    /// checkpoints have none and are still accepted for `--resume`;
    /// `tpi merge` requires headers.
    pub header: Option<CheckpointHeader>,
    /// Every body line that parsed as JSON, in file order (job-result
    /// lines carry a `"job"` index).
    pub lines: Vec<Json>,
    /// True when the final line failed to parse — the signature of a
    /// torn trailing write (crash or SIGKILL mid-append). The valid
    /// prefix above it is intact and usable.
    pub torn_tail: bool,
    /// Unparsable lines *before* the final one (foreign corruption, not
    /// a torn append); they are skipped, but counted so callers can
    /// surface the damage.
    pub skipped_lines: usize,
}

/// Parses a checkpoint stream, recovering the valid prefix around torn
/// writes instead of failing.
///
/// # Errors
///
/// Only a malformed or unknown-version *header* is a hard error (the
/// file's semantics cannot be trusted); body damage is recovered and
/// reported via [`CheckpointFile::torn_tail`] /
/// [`CheckpointFile::skipped_lines`].
pub fn parse_checkpoint(text: &str) -> Result<CheckpointFile, String> {
    let mut out = CheckpointFile::default();
    let total = text.lines().count();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        match Json::parse(raw) {
            Ok(line) => {
                if CheckpointHeader::is_header(&line) {
                    let header = CheckpointHeader::from_json(&line)
                        .map_err(|e| format!("checkpoint line {}: {e}", i + 1))?;
                    if out.header.is_some() || !out.lines.is_empty() {
                        return Err(format!(
                            "checkpoint line {}: unexpected second header",
                            i + 1
                        ));
                    }
                    out.header = Some(header);
                } else {
                    out.lines.push(line);
                }
            }
            Err(_) if i + 1 == total => out.torn_tail = true,
            Err(_) => out.skipped_lines += 1,
        }
    }
    Ok(out)
}

/// Crash-safe checkpoint writer.
///
/// [`CheckpointWriter::create`] writes the header to a sibling temp
/// file, fsyncs it and atomically renames it into place — a crash
/// during creation leaves either no checkpoint or a complete header,
/// never a torn one. Job lines are then appended through the [`Write`]
/// impl; [`flush`](std::io::Write::flush) fsyncs, and the batch runner
/// calls it at every contiguous-prefix flush (its "round boundary"), so
/// a crash loses at most the lines after the last completed prefix.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Creates (or replaces) the checkpoint at `path` with `header` as
    /// its first line, via write-to-temp + fsync + atomic rename.
    ///
    /// # Errors
    ///
    /// Any I/O failure on the temp file, the rename, or the reopen.
    pub fn create(path: &Path, header: &CheckpointHeader) -> std::io::Result<CheckpointWriter> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            writeln!(file, "{}", header.to_json())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing checkpoint for appending (resume). The caller
    /// is expected to have validated the existing header against the
    /// manifest and shard being resumed.
    ///
    /// If the file ends in a torn line (a crash mid-append left bytes
    /// after the last newline), that fragment is truncated away first —
    /// otherwise the next appended line would concatenate onto it and
    /// corrupt a fresh result.
    ///
    /// # Errors
    ///
    /// Any I/O failure opening or truncating `path`.
    pub fn append(path: &Path) -> std::io::Result<CheckpointWriter> {
        let contents = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !contents.is_empty() && contents.last() != Some(&b'\n') {
            let keep = contents
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |pos| pos + 1);
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(keep as u64)?;
            file.sync_data()?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The checkpoint's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::io::Write for CheckpointWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    /// Flush is durability here: the batch runner calls it once per
    /// contiguous-prefix flush, and it fsyncs the file data.
    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// A job line with its volatile per-run fields ([`VOLATILE_LINE_KEYS`])
/// removed: the deterministic payload `tpi merge` emits.
pub fn canonical_line(line: &Json) -> Json {
    match line {
        Json::Obj(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| !VOLATILE_LINE_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One shard's checkpoint, tagged with the file name it came from (for
/// error reporting).
#[derive(Debug)]
pub struct ShardCheckpoint {
    /// Display name (the path the checkpoint was read from).
    pub file: String,
    /// The parsed checkpoint.
    pub ckpt: CheckpointFile,
}

/// A validated, recombined batch: canonical job lines in manifest order
/// plus the derived summary.
#[derive(Debug)]
pub struct MergedBatch {
    /// Canonical job-result lines ([`canonical_line`]), manifest order.
    pub lines: Vec<Json>,
    /// Per-status totals recomputed from the merged lines.
    pub summary: BatchSummary,
    /// Total jobs (the manifest's job count).
    pub jobs: usize,
    /// How many shards were merged.
    pub shards: u32,
}

impl MergedBatch {
    /// The merged summary line: per-status counts plus the job total.
    /// Deliberately excludes wall clocks (`elapsed_ms`), skip counts and
    /// the shard layout, which vary run to run — the merged artifact is
    /// byte-deterministic no matter how the work was partitioned.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("summary", Json::from(true)),
            ("format_version", Json::from(FORMAT_VERSION)),
            ("jobs", Json::from(self.jobs)),
            ("ok", Json::from(self.summary.ok)),
            ("error", Json::from(self.summary.error)),
            ("panic", Json::from(self.summary.panic)),
            ("timeout", Json::from(self.summary.timeout)),
            ("cancelled", Json::from(self.summary.cancelled)),
        ])
    }
}

/// Why a shard set was refused. Every variant renders both as a human
/// sentence ([`Display`](std::fmt::Display)) and a structured JSON
/// object ([`MergeError::to_json`]) naming the offending shard, file
/// and indices exactly.
#[derive(Debug, PartialEq)]
pub enum MergeError {
    /// No checkpoint files were given.
    NoInputs,
    /// A file has no header — legacy checkpoints cannot be merged
    /// (there is nothing pinning their manifest or shard identity).
    MissingHeader {
        /// The offending file.
        file: String,
    },
    /// A file's manifest hash differs from the first file's.
    ManifestMismatch {
        /// The offending file and its hash.
        file: String,
        /// The offending file's manifest hash.
        hash: String,
        /// The reference (first) file.
        expected_file: String,
        /// The reference manifest hash.
        expected: String,
    },
    /// A file declares a different total job count.
    JobCountMismatch {
        /// The offending file.
        file: String,
        /// Its declared job count.
        jobs: usize,
        /// The reference job count.
        expected: usize,
    },
    /// A file declares a different shard count.
    ShardCountMismatch {
        /// The offending file.
        file: String,
        /// Its declared shard count.
        count: u32,
        /// The reference shard count.
        expected: u32,
    },
    /// Two files claim the same shard index.
    DuplicateShard {
        /// The doubly-claimed shard index.
        index: u32,
        /// Both claiming files.
        files: (String, String),
    },
    /// The set does not cover every shard.
    MissingShards {
        /// Shard indices with no checkpoint, ascending.
        missing: Vec<u32>,
        /// The shard count the set declares.
        count: u32,
    },
    /// A shard's checkpoint lacks a result line for some of the jobs it
    /// owns (the run crashed, was cancelled, or was never resumed to
    /// completion).
    IncompleteShard {
        /// The offending file.
        file: String,
        /// Which shard it is.
        shard: ShardSpec,
        /// Exactly the manifest indices still unfinished, ascending.
        unfinished: Vec<usize>,
    },
}

impl MergeError {
    /// The structured rendering: `{"error": "<code>", ...}` with the
    /// offending shard / file / indices as fields.
    pub fn to_json(&self) -> Json {
        match self {
            MergeError::NoInputs => Json::obj([("error", Json::from("no_inputs"))]),
            MergeError::MissingHeader { file } => Json::obj([
                ("error", Json::from("missing_header")),
                ("file", Json::from(file.as_str())),
            ]),
            MergeError::ManifestMismatch {
                file,
                hash,
                expected_file,
                expected,
            } => Json::obj([
                ("error", Json::from("manifest_mismatch")),
                ("file", Json::from(file.as_str())),
                ("manifest_hash", Json::from(hash.as_str())),
                ("expected_file", Json::from(expected_file.as_str())),
                ("expected_manifest_hash", Json::from(expected.as_str())),
            ]),
            MergeError::JobCountMismatch {
                file,
                jobs,
                expected,
            } => Json::obj([
                ("error", Json::from("job_count_mismatch")),
                ("file", Json::from(file.as_str())),
                ("jobs", Json::from(*jobs)),
                ("expected_jobs", Json::from(*expected)),
            ]),
            MergeError::ShardCountMismatch {
                file,
                count,
                expected,
            } => Json::obj([
                ("error", Json::from("shard_count_mismatch")),
                ("file", Json::from(file.as_str())),
                ("shard_count", Json::from(u64::from(*count))),
                ("expected_shard_count", Json::from(u64::from(*expected))),
            ]),
            MergeError::DuplicateShard { index, files } => Json::obj([
                ("error", Json::from("duplicate_shard")),
                ("shard_index", Json::from(u64::from(*index))),
                (
                    "files",
                    Json::Arr(vec![
                        Json::from(files.0.as_str()),
                        Json::from(files.1.as_str()),
                    ]),
                ),
            ]),
            MergeError::MissingShards { missing, count } => Json::obj([
                ("error", Json::from("missing_shards")),
                (
                    "missing",
                    Json::Arr(missing.iter().map(|&i| Json::from(u64::from(i))).collect()),
                ),
                ("shard_count", Json::from(u64::from(*count))),
            ]),
            MergeError::IncompleteShard {
                file,
                shard,
                unfinished,
            } => Json::obj([
                ("error", Json::from("incomplete_shard")),
                ("file", Json::from(file.as_str())),
                ("shard", Json::from(shard.to_string())),
                (
                    "unfinished",
                    Json::Arr(unfinished.iter().map(|&i| Json::from(i)).collect()),
                ),
            ]),
        }
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoInputs => write!(f, "no checkpoint files to merge"),
            MergeError::MissingHeader { file } => write!(
                f,
                "{file}: no checkpoint header (legacy checkpoints cannot be merged)"
            ),
            MergeError::ManifestMismatch {
                file,
                hash,
                expected_file,
                expected,
            } => write!(
                f,
                "{file}: manifest hash {hash} does not match {expected_file} ({expected}) — \
                 these checkpoints belong to different manifests"
            ),
            MergeError::JobCountMismatch {
                file,
                jobs,
                expected,
            } => write!(f, "{file}: declares {jobs} jobs, expected {expected}"),
            MergeError::ShardCountMismatch {
                file,
                count,
                expected,
            } => write!(f, "{file}: declares {count} shards, expected {expected}"),
            MergeError::DuplicateShard { index, files } => write!(
                f,
                "shard {index} claimed by both {} and {}",
                files.0, files.1
            ),
            MergeError::MissingShards { missing, count } => {
                let list: Vec<String> = missing.iter().map(u32::to_string).collect();
                write!(
                    f,
                    "incomplete shard set: missing shard(s) {} of {count}",
                    list.join(", ")
                )
            }
            MergeError::IncompleteShard {
                file,
                shard,
                unfinished,
            } => {
                let list: Vec<String> = unfinished.iter().map(usize::to_string).collect();
                write!(
                    f,
                    "{file}: shard {shard} is incomplete — job(s) {} have no result \
                     (resume it with --resume before merging)",
                    list.join(", ")
                )
            }
        }
    }
}

/// Validates a shard set and recombines it into one deterministic batch
/// result: headers must agree on version, manifest and shard count,
/// shard indices must be disjoint and cover `1..=count`, and every
/// owned job must have a result line. Per-job results are taken
/// last-line-wins (a resumed shard appends) and emitted in manifest
/// order with volatile fields stripped.
///
/// # Errors
///
/// The first [`MergeError`] found, naming the offending file, shard and
/// indices exactly.
pub fn merge_checkpoints(inputs: &[ShardCheckpoint]) -> Result<MergedBatch, MergeError> {
    let first = inputs.first().ok_or(MergeError::NoInputs)?;
    let reference = match &first.ckpt.header {
        Some(h) => h,
        None => {
            return Err(MergeError::MissingHeader {
                file: first.file.clone(),
            })
        }
    };

    // Header agreement + shard disjointness.
    let mut by_shard: BTreeMap<u32, &ShardCheckpoint> = BTreeMap::new();
    for input in inputs {
        let header = match &input.ckpt.header {
            Some(h) => h,
            None => {
                return Err(MergeError::MissingHeader {
                    file: input.file.clone(),
                })
            }
        };
        if header.manifest_hash != reference.manifest_hash {
            return Err(MergeError::ManifestMismatch {
                file: input.file.clone(),
                hash: header.manifest_hash.clone(),
                expected_file: first.file.clone(),
                expected: reference.manifest_hash.clone(),
            });
        }
        if header.jobs != reference.jobs {
            return Err(MergeError::JobCountMismatch {
                file: input.file.clone(),
                jobs: header.jobs,
                expected: reference.jobs,
            });
        }
        if header.shard.count != reference.shard.count {
            return Err(MergeError::ShardCountMismatch {
                file: input.file.clone(),
                count: header.shard.count,
                expected: reference.shard.count,
            });
        }
        if let Some(previous) = by_shard.insert(header.shard.index, input) {
            return Err(MergeError::DuplicateShard {
                index: header.shard.index,
                files: (previous.file.clone(), input.file.clone()),
            });
        }
    }

    // Coverage: every shard 1..=count must be present.
    let count = reference.shard.count;
    let missing: Vec<u32> = (1..=count).filter(|i| !by_shard.contains_key(i)).collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingShards { missing, count });
    }

    // Per shard: last result line per owned job; every owned job must
    // have one.
    let jobs = reference.jobs;
    let mut results: Vec<Option<&Json>> = vec![None; jobs];
    for (&index, input) in &by_shard {
        let shard = ShardSpec { index, count };
        for line in &input.ckpt.lines {
            if let Some(job) = line.get("job").and_then(Json::as_u64) {
                let job = job as usize;
                if job < jobs && shard.owns(job) && line.get("status").is_some() {
                    results[job] = Some(line);
                }
            }
        }
        let unfinished: Vec<usize> = shard
            .owned_indices(jobs)
            .into_iter()
            .filter(|&j| results[j].is_none())
            .collect();
        if !unfinished.is_empty() {
            return Err(MergeError::IncompleteShard {
                file: input.file.clone(),
                shard,
                unfinished,
            });
        }
    }

    let mut summary = BatchSummary::default();
    let lines: Vec<Json> = results
        .into_iter()
        .map(|line| {
            let line = line.expect("every job verified finished above");
            summary.count(line.get("status").and_then(Json::as_str).unwrap_or("error"));
            canonical_line(line)
        })
        .collect();
    Ok(MergedBatch {
        lines,
        summary,
        jobs,
        shards: count,
    })
}

/// Rebuilds an obs [`Snapshot`] from its JSON sink rendering
/// ([`Snapshot::to_json`]) — the inverse the `tpi stats` renderer and
/// the `tpi merge` metrics combiner both need.
///
/// # Errors
///
/// Names the first malformed metric.
pub fn snapshot_from_json(doc: &Json) -> Result<Snapshot, String> {
    let Json::Obj(metrics) = doc else {
        return Err("metrics document must be a JSON object".into());
    };
    let mut snapshot = Snapshot::new();
    for (name, metric) in metrics {
        let kind = metric
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric '{name}' has no 'type'"))?;
        let value = match kind {
            "counter" => MetricValue::Counter(
                metric
                    .get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("counter '{name}' has no integer 'value'"))?,
            ),
            "gauge" => MetricValue::Gauge(
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("gauge '{name}' has no 'value'"))?
                    as i64,
            ),
            "histogram" => {
                let field = |key: &str| {
                    metric
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram '{name}' has no integer '{key}'"))
                };
                let buckets = metric
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histogram '{name}' has no 'buckets'"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().unwrap_or(&[]);
                        match (
                            pair.first().and_then(Json::as_u64),
                            pair.get(1).and_then(Json::as_u64),
                        ) {
                            (Some(lo), Some(n)) => Ok((lo, n)),
                            _ => Err(format!("histogram '{name}' has a malformed bucket")),
                        }
                    })
                    .collect::<Result<Vec<(u64, u64)>, String>>()?;
                MetricValue::Histogram(HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    buckets,
                })
            }
            other => return Err(format!("metric '{name}' has unknown type '{other}'")),
        };
        snapshot.insert(name.clone(), value);
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        Json::parse(r#"{"jobs":[{"circuit":"a.bench"},{"circuit":"b.bench"}]}"#).unwrap()
    }

    #[test]
    fn manifest_hash_ignores_formatting_but_not_content() {
        let spaced = Json::parse(r#"{ "jobs" : [ { "circuit" : "a.bench" } ] }"#).unwrap();
        let compact = Json::parse(r#"{"jobs":[{"circuit":"a.bench"}]}"#).unwrap();
        assert_eq!(manifest_hash(&spaced), manifest_hash(&compact));
        let other = Json::parse(r#"{"jobs":[{"circuit":"b.bench"}]}"#).unwrap();
        assert_ne!(manifest_hash(&spaced), manifest_hash(&other));
        assert!(manifest_hash(&compact).starts_with("fnv1a:"));
    }

    #[test]
    fn shard_spec_parses_and_partitions_disjointly() {
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, count: 3 }
        );
        assert!(ShardSpec::parse("0/3").is_err());
        assert!(ShardSpec::parse("4/3").is_err());
        assert!(ShardSpec::parse("1/0").is_err());
        assert!(ShardSpec::parse("nope").is_err());
        assert!(ShardSpec::parse("1-3").is_err());
        // Every job owned by exactly one shard.
        let total = 17;
        let mut owned = vec![0usize; total];
        for i in 1..=3u32 {
            for j in (ShardSpec { index: i, count: 3 }).owned_indices(total) {
                owned[j] += 1;
            }
        }
        assert!(owned.iter().all(|&n| n == 1));
        assert!(ShardSpec::WHOLE.owns(0) && ShardSpec::WHOLE.owns(12345));
    }

    #[test]
    fn header_round_trips() {
        let header = CheckpointHeader::new(&manifest(), 2, ShardSpec { index: 2, count: 3 });
        assert_eq!(header.format_version, FORMAT_VERSION);
        let line = header.to_json();
        assert!(CheckpointHeader::is_header(&line));
        let reparsed = CheckpointHeader::from_json(&Json::parse(&line.to_string()).unwrap());
        assert_eq!(reparsed.unwrap(), header);
    }

    #[test]
    fn unknown_version_is_refused() {
        let mut line = CheckpointHeader::new(&manifest(), 2, ShardSpec::WHOLE).to_json();
        if let Json::Obj(map) = &mut line {
            map.insert("format_version".to_string(), Json::from(99u64));
        }
        let err = CheckpointHeader::from_json(&line).unwrap_err();
        assert!(err.contains("format_version 99"), "{err}");
        // Through the file parser it is a hard error too.
        let text = format!("{line}\n{{\"job\":0,\"status\":\"ok\"}}\n");
        assert!(parse_checkpoint(&text).is_err());
    }

    #[test]
    fn parse_checkpoint_recovers_torn_tail() {
        let header = CheckpointHeader::new(&manifest(), 2, ShardSpec::WHOLE);
        let text = format!(
            "{}\n{{\"job\":0,\"status\":\"ok\"}}\n{{\"job\":1,\"stat",
            header.to_json()
        );
        let ckpt = parse_checkpoint(&text).unwrap();
        assert_eq!(ckpt.header, Some(header));
        assert_eq!(ckpt.lines.len(), 1);
        assert!(ckpt.torn_tail);
        assert_eq!(ckpt.skipped_lines, 0);
    }

    #[test]
    fn parse_checkpoint_counts_mid_file_damage_and_legacy_files() {
        let text = "{\"job\":0,\"status\":\"ok\"}\nnot json\n{\"job\":1,\"status\":\"ok\"}\n";
        let ckpt = parse_checkpoint(text).unwrap();
        assert!(ckpt.header.is_none(), "legacy files have no header");
        assert_eq!(ckpt.lines.len(), 2);
        assert!(!ckpt.torn_tail);
        assert_eq!(ckpt.skipped_lines, 1);
    }

    #[test]
    fn checkpoint_writer_creates_atomically_and_appends() {
        let dir = std::env::temp_dir().join(format!("tpi-schema-writer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.ckpt");
        let header = CheckpointHeader::new(&manifest(), 2, ShardSpec::WHOLE);
        {
            let mut w = CheckpointWriter::create(&path, &header).unwrap();
            use std::io::Write as _;
            writeln!(w, "{}", Json::obj([("job", Json::from(0usize))])).unwrap();
            w.flush().unwrap();
        }
        // No temp file left behind; header + line present.
        assert!(!dir.join("shard.ckpt.tmp").exists());
        let ckpt = parse_checkpoint(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ckpt.header, Some(header.clone()));
        assert_eq!(ckpt.lines.len(), 1);
        {
            let mut w = CheckpointWriter::append(&path).unwrap();
            use std::io::Write as _;
            writeln!(w, "{}", Json::obj([("job", Json::from(1usize))])).unwrap();
        }
        let ckpt = parse_checkpoint(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ckpt.lines.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn canonical_line_strips_only_volatile_keys() {
        let line = Json::parse(
            r#"{"job":3,"status":"ok","millis":17,"attempts":2,"worker_exited":true,
                "coverage":0.75}"#,
        )
        .unwrap();
        let canon = canonical_line(&line);
        assert_eq!(
            canon.to_string(),
            r#"{"coverage":0.75,"job":3,"status":"ok"}"#
        );
    }

    fn shard_file(
        manifest: &Json,
        jobs: usize,
        shard: ShardSpec,
        lines: &[&str],
    ) -> ShardCheckpoint {
        let header = CheckpointHeader::new(manifest, jobs, shard);
        let mut text = format!("{}\n", header.to_json());
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        ShardCheckpoint {
            file: format!("shard{}.ckpt", shard.index),
            ckpt: parse_checkpoint(&text).unwrap(),
        }
    }

    #[test]
    fn merge_recombines_in_manifest_order_with_last_line_winning() {
        let m = manifest();
        let jobs = 4;
        let s1 = shard_file(
            &m,
            jobs,
            ShardSpec { index: 1, count: 2 },
            &[
                r#"{"job":0,"status":"timeout","millis":3}"#,
                r#"{"job":2,"status":"ok","millis":5,"coverage":0.5}"#,
                r#"{"job":0,"status":"ok","millis":9}"#, // resumed: last wins
            ],
        );
        let s2 = shard_file(
            &m,
            jobs,
            ShardSpec { index: 2, count: 2 },
            &[
                r#"{"job":1,"status":"error","error":"parse","millis":1}"#,
                r#"{"job":3,"status":"ok","millis":2}"#,
            ],
        );
        let merged = merge_checkpoints(&[s2, s1]).unwrap(); // order-insensitive
        assert_eq!(merged.jobs, 4);
        assert_eq!(merged.shards, 2);
        assert_eq!(merged.summary.ok, 3);
        assert_eq!(merged.summary.error, 1);
        let rendered: Vec<String> = merged.lines.iter().map(Json::to_string).collect();
        assert_eq!(
            rendered,
            vec![
                r#"{"job":0,"status":"ok"}"#,
                r#"{"error":"parse","job":1,"status":"error"}"#,
                r#"{"coverage":0.5,"job":2,"status":"ok"}"#,
                r#"{"job":3,"status":"ok"}"#,
            ]
        );
        let summary = merged.summary_json().to_string();
        assert!(summary.contains("\"format_version\":1"), "{summary}");
        assert!(!summary.contains("elapsed_ms"), "{summary}");
    }

    #[test]
    fn merge_refuses_mismatched_manifests() {
        let m1 = manifest();
        let m2 = Json::parse(r#"{"jobs":[{"circuit":"other.bench"}]}"#).unwrap();
        let s1 = shard_file(
            &m1,
            2,
            ShardSpec { index: 1, count: 2 },
            &[r#"{"job":0,"status":"ok"}"#],
        );
        let s2 = shard_file(
            &m2,
            2,
            ShardSpec { index: 2, count: 2 },
            &[r#"{"job":1,"status":"ok"}"#],
        );
        let err = merge_checkpoints(&[s1, s2]).unwrap_err();
        assert!(matches!(err, MergeError::ManifestMismatch { .. }), "{err}");
        let json = err.to_json().to_string();
        assert!(json.contains("\"error\":\"manifest_mismatch\""), "{json}");
        assert!(json.contains("shard2.ckpt"), "{json}");
    }

    #[test]
    fn merge_reports_missing_and_duplicate_shards() {
        let m = manifest();
        let s1 = shard_file(
            &m,
            3,
            ShardSpec { index: 1, count: 3 },
            &[r#"{"job":0,"status":"ok"}"#],
        );
        let err = merge_checkpoints(&[s1]).unwrap_err();
        assert_eq!(
            err,
            MergeError::MissingShards {
                missing: vec![2, 3],
                count: 3
            }
        );
        assert!(err.to_json().to_string().contains("\"missing\":[2,3]"));

        let a = shard_file(
            &m,
            3,
            ShardSpec { index: 1, count: 3 },
            &[r#"{"job":0,"status":"ok"}"#],
        );
        let b = shard_file(
            &m,
            3,
            ShardSpec { index: 1, count: 3 },
            &[r#"{"job":0,"status":"ok"}"#],
        );
        let err = merge_checkpoints(&[a, b]).unwrap_err();
        assert!(
            matches!(err, MergeError::DuplicateShard { index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn merge_names_exactly_the_unfinished_indices() {
        let m = manifest();
        // Shard 1/1 owns jobs 0..5 but only 1 and 3 have results.
        let s = shard_file(
            &m,
            5,
            ShardSpec::WHOLE,
            &[
                r#"{"job":1,"status":"ok"}"#,
                r#"{"job":3,"status":"error","error":"x"}"#,
            ],
        );
        let err = merge_checkpoints(&[s]).unwrap_err();
        match &err {
            MergeError::IncompleteShard {
                shard, unfinished, ..
            } => {
                assert_eq!(*shard, ShardSpec::WHOLE);
                assert_eq!(unfinished, &vec![0, 2, 4]);
            }
            other => panic!("expected IncompleteShard, got {other:?}"),
        }
        let json = err.to_json().to_string();
        assert!(json.contains("\"unfinished\":[0,2,4]"), "{json}");
    }

    #[test]
    fn merge_refuses_headerless_legacy_files() {
        let ckpt = parse_checkpoint("{\"job\":0,\"status\":\"ok\"}\n").unwrap();
        let err = merge_checkpoints(&[ShardCheckpoint {
            file: "legacy.jsonl".to_string(),
            ckpt,
        }])
        .unwrap_err();
        assert!(matches!(err, MergeError::MissingHeader { .. }), "{err}");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let summary = BatchSummary {
            ok: 3,
            error: 1,
            panic: 2,
            timeout: 4,
            cancelled: 5,
            skipped: 6,
            elapsed_ms: 123,
        };
        let doc = Json::parse(&summary.to_json().to_string()).unwrap();
        assert_eq!(doc.get("summary").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("format_version").and_then(Json::as_u64),
            Some(FORMAT_VERSION)
        );
        for (key, want) in [
            ("ok", 3),
            ("error", 1),
            ("panic", 2),
            ("timeout", 4),
            ("cancelled", 5),
            ("skipped", 6),
            ("elapsed_ms", 123),
        ] {
            assert_eq!(doc.get(key).and_then(Json::as_u64), Some(want), "{key}");
        }
    }

    #[test]
    fn metrics_snapshot_round_trips_through_json() {
        let registry = tpi_obs::Registry::new();
        registry.counter("batch.status.ok").add(3);
        registry.gauge("compaction.patterns_after").set(1);
        registry.histogram("batch.job_ms").record(12);
        registry.histogram("batch.job_ms").record(900);
        let snap = registry.snapshot();
        let doc = Json::parse(&snap.to_json()).unwrap();
        let back = snapshot_from_json(&doc).unwrap();
        assert_eq!(back.to_json(), snap.to_json());
    }
}
