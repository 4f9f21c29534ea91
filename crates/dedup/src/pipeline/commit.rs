//! The commit stage: index lookup, rewrite decision, container fill, recipe.
//!
//! Dedup decisions are order-dependent — whether a chunk is a duplicate
//! depends on every chunk committed before it, and which container it lands
//! in depends on how full the open container is. The commit stage therefore
//! always runs on exactly one thread, processing segments in stream order,
//! whether the front end hashed inline or on workers.

use std::collections::HashMap;
use std::ops::Range;

use hidestore_hash::Fingerprint;
use hidestore_index::FingerprintIndex;
use hidestore_rewriting::{RewritePolicy, SegmentChunk};
use hidestore_storage::{
    Cid, ContainerBuilder, ContainerId, ContainerStore, Recipe, RecipeEntry, VersionId,
};

use super::PipelineError;

/// Mutable state of one version's commit stage, borrowing the pipeline's
/// phase implementations. Created at version start, consumed by
/// [`CommitState::finish`] at version end.
pub(super) struct CommitState<'a, I, R, S> {
    index: &'a mut I,
    rewriter: &'a mut R,
    store: &'a mut S,
    builder: &'a mut ContainerBuilder,
    recipe: Recipe,
    stored_this_version: HashMap<Fingerprint, ContainerId>,
    stored_bytes: u64,
    stored_chunks: u64,
}

/// What a finished commit stage hands back to the pipeline.
pub(super) struct CommitOutcome {
    pub recipe: Recipe,
    pub stored_bytes: u64,
    pub stored_chunks: u64,
}

impl<'a, I: FingerprintIndex, R: RewritePolicy, S: ContainerStore> CommitState<'a, I, R, S> {
    pub fn new(
        index: &'a mut I,
        rewriter: &'a mut R,
        store: &'a mut S,
        builder: &'a mut ContainerBuilder,
        version: VersionId,
    ) -> Self {
        CommitState {
            index,
            rewriter,
            store,
            builder,
            recipe: Recipe::new(version),
            stored_this_version: HashMap::new(),
            stored_bytes: 0,
            stored_chunks: 0,
        }
    }

    /// Commits one segment: phases 3 (index lookup), 4 (rewrite decision)
    /// and 5 (store + recipe). The segment's `i`-th chunk is
    /// `data[spans[i]]`, fingerprinted as `fingerprints[i]`.
    pub fn commit_segment(
        &mut self,
        data: &[u8],
        spans: &[Range<usize>],
        fingerprints: &[Fingerprint],
    ) -> Result<(), PipelineError> {
        // Phase 3: index lookup.
        let lookup_input: Vec<(Fingerprint, u32)> = fingerprints
            .iter()
            .zip(spans)
            .map(|(&fp, span)| (fp, span.len() as u32))
            .collect();
        let decisions = self.index.process_segment(&lookup_input);

        // Intra-version duplicates are resolved by the pipeline itself
        // (Destor's "rewrite buffer" behaviour): they always reference the
        // copy stored moments ago and are never rewritten.
        let mut rewrite_input = Vec::with_capacity(lookup_input.len());
        let mut intra: Vec<Option<ContainerId>> = Vec::with_capacity(lookup_input.len());
        for (&(fp, size), &decision) in lookup_input.iter().zip(&decisions) {
            if let Some(&cid) = self.stored_this_version.get(&fp) {
                intra.push(Some(cid));
                rewrite_input.push(SegmentChunk::new(fp, size, None));
            } else {
                intra.push(None);
                rewrite_input.push(SegmentChunk::new(fp, size, decision));
            }
        }

        // Phase 4: rewriting decision.
        let rewrites = self.rewriter.process_segment(&rewrite_input);

        // Phase 5: store chunks and build the recipe.
        for (offset, &(fp, size)) in lookup_input.iter().enumerate() {
            let final_cid = if let Some(cid) = intra[offset] {
                cid
            } else {
                match (rewrite_input[offset].existing, rewrites[offset]) {
                    (Some(cid), false) => cid, // reference the old copy
                    _ => {
                        // Unique, or duplicate elected for rewriting.
                        let (cid, sealed) = self.builder.append(fp, &data[spans[offset].clone()]);
                        if let Some(full) = sealed {
                            self.store.write(full)?;
                        }
                        self.stored_bytes += size as u64;
                        self.stored_chunks += 1;
                        self.stored_this_version.insert(fp, cid);
                        cid
                    }
                }
            };
            self.index.record_chunk(fp, size, final_cid);
            self.recipe
                .push(RecipeEntry::new(fp, size, Cid::archival(final_cid)));
        }
        Ok(())
    }

    /// Seals the version's open container so restores can read it, and
    /// returns the recipe and stored-byte accounting.
    pub fn finish(self) -> Result<CommitOutcome, PipelineError> {
        if let Some(open) = self.builder.take_open() {
            if !open.is_empty() {
                self.store.write(open)?;
            }
        }
        Ok(CommitOutcome {
            recipe: self.recipe,
            stored_bytes: self.stored_bytes,
            stored_chunks: self.stored_chunks,
        })
    }
}
