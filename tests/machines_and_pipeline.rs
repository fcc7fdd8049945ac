//! Integration: continuous scan + river + archive replication working
//! together, and the data pump accounting.

use sdss::archive::{ArchiveNetwork, DataPump};
use sdss::catalog::{ObjClass, SkyModel, TagObject};
use sdss::dataflow::{ObjPredicate, RiverGraph, ScanMachine, SimCluster};
use sdss::storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

#[test]
fn continuous_scan_serves_overlapping_queries() {
    let objs = SkyModel::small(301).generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let cluster = SimCluster::from_store(&store, 3).unwrap();
    let machine = ScanMachine::new(&cluster);
    let scan = machine.continuous();

    let preds: Vec<(ObjPredicate, usize)> = vec![
        (
            Arc::new(|o: &sdss::catalog::PhotoObj| o.class == ObjClass::Galaxy),
            objs.iter().filter(|o| o.class == ObjClass::Galaxy).count(),
        ),
        (
            Arc::new(|o: &sdss::catalog::PhotoObj| o.mag(2) < 20.0),
            objs.iter().filter(|o| o.mag(2) < 20.0).count(),
        ),
        (
            Arc::new(|o: &sdss::catalog::PhotoObj| o.color_ug() < 0.5),
            objs.iter().filter(|o| o.color_ug() < 0.5).count(),
        ),
    ];
    // Attach all three; they share the same sweep.
    let receivers: Vec<_> = preds.iter().map(|(p, _)| scan.attach(p.clone())).collect();
    for (rx, (_, want)) in receivers.into_iter().zip(preds.iter()) {
        assert_eq!(rx.iter().count(), *want);
    }
    scan.shutdown();
}

#[test]
fn river_filters_and_sorts_tag_partition() {
    let objs = SkyModel::small(302).generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();

    // A river over the tag partition: filter to galaxies, sort by r.
    let tags_store = TagStore::from_store(&store);
    let all_tags: Vec<TagObject> = tags_store
        .column_chunks()
        .flat_map(|(_, chunk)| (0..chunk.len()).map(|i| chunk.row(i)))
        .collect();
    let river = RiverGraph::new(3)
        .unwrap()
        .filter(|t| t.class == ObjClass::Galaxy)
        .sort_by(|t| t.mags[2] as f64);
    let (sorted, report) = river.run(&all_tags).unwrap();
    assert_eq!(report.records_in, all_tags.len());
    let galaxies = all_tags.iter().filter(|t| t.class == ObjClass::Galaxy);
    assert_eq!(sorted.len(), galaxies.count());
    assert!(sorted.iter().all(|t| t.class == ObjClass::Galaxy));
    assert!(sorted.windows(2).all(|w| w[0].mags[2] <= w[1].mags[2]));
}

#[test]
fn pump_shares_sweeps_and_network_delivers() {
    let mut pump = DataPump::new(400_000_000_000); // the 400 GB catalog
    pump.submit("proper-motion sweep", 1.0);
    pump.submit("variability sweep", 1.0);
    pump.submit("color-outlier sweep", 0.8);
    let round = pump.run_round().unwrap();
    assert_eq!(round.queries_served, 3);
    assert!(round.sharing_factor() > 2.0);

    let mut net = ArchiveNetwork::sdss_default(1, 1);
    net.run(5);
    // Everything eventually lands everywhere.
    for (_, count) in net.holdings_summary() {
        assert_eq!(count, 5);
    }
}

#[test]
fn partition_and_cluster_line_up() {
    let objs = SkyModel::small(303).generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let pm = sdss::storage::PartitionMap::build(&store, 4).unwrap();
    let cluster = SimCluster::from_store(&store, 4).unwrap();
    // Node byte counts must match the partition map exactly.
    for node in 0..4 {
        assert_eq!(
            cluster.node_stats(node).bytes,
            pm.server_bytes()[node],
            "node {node}"
        );
    }
}
