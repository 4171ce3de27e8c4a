//! The shared experiment workspace.
//!
//! Builds everything the experiment regenerators need exactly once:
//! paired 2016/2020 worlds over one universe, both measurement datasets,
//! both dependency graphs, and the hospital vertical. The 2020
//! direct-only reach index, which several figures read, is built on
//! first use and shared.

use std::sync::OnceLock;
use webdeps_core::{DepGraph, MetricOptions, ReachIndex};
use webdeps_measure::{measure_world, MeasurementDataset};
use webdeps_worldgen::verticals::hospital_world;
use webdeps_worldgen::{World, WorldPair};

/// Prepared inputs for all experiments.
pub struct Workspace {
    /// Generation seed.
    pub seed: u64,
    /// Site population per snapshot.
    pub scale: usize,
    /// The 2016 world.
    pub world16: World,
    /// The 2020 world.
    pub world20: World,
    /// 2016 measurements.
    pub ds16: MeasurementDataset,
    /// 2020 measurements.
    pub ds20: MeasurementDataset,
    /// 2016 dependency graph.
    pub graph16: DepGraph,
    /// 2020 dependency graph.
    pub graph20: DepGraph,
    /// The top-200-hospitals world.
    pub hospitals: World,
    /// Hospital measurements.
    pub ds_hospitals: MeasurementDataset,
    /// The 2020 reach index under direct-only options, built on first
    /// use (see [`Self::direct20`]).
    direct20: OnceLock<ReachIndex>,
}

impl Workspace {
    /// Builds the workspace (generation + full measurement of three
    /// worlds; the expensive step behind every experiment).
    pub fn new(seed: u64, scale: usize) -> Workspace {
        let pair = WorldPair::generate(seed, scale);
        let ds16 = measure_world(&pair.y2016);
        let ds20 = measure_world(&pair.y2020);
        let graph16 = DepGraph::from_dataset(&ds16);
        let graph20 = DepGraph::from_dataset(&ds20);
        let hospitals = hospital_world(seed);
        let ds_hospitals = measure_world(&hospitals);
        Workspace {
            seed,
            scale,
            world16: pair.y2016,
            world20: pair.y2020,
            ds16,
            ds20,
            graph16,
            graph20,
            hospitals,
            ds_hospitals,
            direct20: OnceLock::new(),
        }
    }

    /// The reach index of the 2020 graph under
    /// [`MetricOptions::direct_only`]: built once, on first use, for
    /// every figure that compares against direct dependencies.
    pub fn direct20(&self) -> &ReachIndex {
        self.direct20
            .get_or_init(|| ReachIndex::build(&self.graph20, &MetricOptions::direct_only()))
    }

    /// A small workspace for tests.
    pub fn for_tests() -> Workspace {
        Workspace::new(42, 2_000)
    }
}
