//! On-disk checkpoint storage for long experiment runs.
//!
//! Wraps [`flow_mcmc::FlowCheckpoint`]'s text format with atomic file
//! handling (write to a temp file, then rename) so a crash mid-write
//! never leaves a truncated checkpoint behind — a truncated file would
//! otherwise parse-fail on resume and discard the whole run's progress.

use flow_core::{FlowError, FlowResult};
use flow_mcmc::FlowCheckpoint;
use std::path::{Path, PathBuf};

/// A directory of named checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl AsRef<Path>) -> FlowResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// Atomically writes a checkpoint under `name` (replacing any
    /// previous one).
    pub fn save(&self, name: &str, ckpt: &FlowCheckpoint) -> FlowResult<()> {
        let tmp = self.dir.join(format!("{name}.ckpt.tmp"));
        std::fs::write(&tmp, ckpt.to_text())?;
        std::fs::rename(&tmp, self.path(name))?;
        Ok(())
    }

    /// Loads the checkpoint saved under `name`, or `None` if there is
    /// no such file. A present-but-corrupt file is a typed
    /// [`FlowError::Checkpoint`] error, not a silent restart.
    pub fn load(&self, name: &str) -> FlowResult<Option<FlowCheckpoint>> {
        let path = self.path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        FlowCheckpoint::from_text(&text)
            .map(Some)
            .map_err(|e| match e {
                FlowError::Checkpoint { detail } => FlowError::Checkpoint {
                    detail: format!("{}: {detail}", path.display()),
                },
                other => other,
            })
    }

    /// Removes the checkpoint under `name` (a completed run's
    /// checkpoint is stale: resuming from it would repeat the tail).
    pub fn remove(&self, name: &str) -> FlowResult<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::BitSet;
    use flow_icm::PseudoState;
    use flow_mcmc::{ChainCheckpoint, ProposalKind};

    fn sample_ckpt() -> FlowCheckpoint {
        FlowCheckpoint {
            chain: ChainCheckpoint {
                state: PseudoState::from_bits(BitSet::from_indices(4, [0, 2])),
                proposal: ProposalKind::ResultingActivity,
                steps: 42,
                accepted: 17,
                rng_state: [1, 2, 3, 4],
            },
            source: 0,
            sink: 3,
            samples_done: 2,
            every: 2,
            series: vec![1, 0],
        }
    }

    #[test]
    fn save_load_remove_roundtrip() {
        let dir = std::env::temp_dir().join("flowexp-ckpt-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.load("run").unwrap(), None);
        let ckpt = sample_ckpt();
        store.save("run", &ckpt).unwrap();
        assert_eq!(store.load("run").unwrap(), Some(ckpt));
        store.remove("run").unwrap();
        assert_eq!(store.load("run").unwrap(), None);
        store.remove("run").unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join("flowexp-ckpt-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        std::fs::write(dir.join("bad.ckpt"), "not a checkpoint").unwrap();
        assert!(matches!(
            store.load("bad"),
            Err(FlowError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
