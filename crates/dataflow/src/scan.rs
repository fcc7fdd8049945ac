//! The scan machine.
//!
//! Paper, §Scalable Server Architectures: "Our simplest approach is to run
//! a scan machine that continuously scans the dataset evaluating
//! user-supplied predicates on each object. [...] If the data is spread
//! among the 20 nodes, they can scan the data at an aggregate rate of
//! 3 GBps. [...] The scan machine will be interactively scheduled: when an
//! astronomer has a query, it is added to the query mix immediately. All
//! data that qualifies is sent back to the astronomer, and the query
//! completes within the scan time."
//!
//! Modes:
//!
//! * [`ScanMachine::run_query`] — one-shot parallel sweep (the E4 scaling
//!   benchmark measures aggregate bytes/second vs node count);
//! * [`ScanMachine::continuous`] — the broadcast-disk mode: node threads
//!   cycle over their containers forever; queries attach at any moment
//!   and complete after one full cycle.
//!
//! The query engine's own intra-query parallelism (`sdss_query`'s morsel
//! driver) is the single-node analog of the one-shot sweep.

use crate::cluster::SimCluster;
use crate::DataflowError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sdss_catalog::PhotoObj;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A user-supplied predicate over full objects.
pub type ObjPredicate = Arc<dyn Fn(&PhotoObj) -> bool + Send + Sync>;

/// Result of a one-shot scan.
#[derive(Debug, Clone)]
pub struct ScanReport {
    pub nodes: usize,
    pub wall: Duration,
    pub bytes: usize,
    pub objects: usize,
    pub matches: usize,
}

impl ScanReport {
    /// Aggregate scan rate in MB/s.
    pub fn aggregate_mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// The scan machine over a simulated cluster of full objects.
pub struct ScanMachine<'a> {
    cluster: &'a SimCluster,
}

impl<'a> ScanMachine<'a> {
    pub fn new(cluster: &'a SimCluster) -> ScanMachine<'a> {
        ScanMachine { cluster }
    }

    /// One-shot parallel sweep: every node scans its containers once;
    /// matching objects stream to the caller's collector.
    pub fn run_query(
        &self,
        predicate: ObjPredicate,
        mut on_match: impl FnMut(PhotoObj),
    ) -> Result<ScanReport, DataflowError> {
        let n = self.cluster.n_nodes();
        let (tx, rx) = unbounded::<PhotoObj>();
        let bytes = AtomicUsize::new(0);
        let objects = AtomicUsize::new(0);
        let start = Instant::now();
        let mut matches = 0usize;

        std::thread::scope(|scope| {
            for node in 0..n {
                let tx = tx.clone();
                let predicate = predicate.clone();
                let bytes = &bytes;
                let objects = &objects;
                let cluster = self.cluster;
                scope.spawn(move || {
                    let mut local_bytes = 0usize;
                    let mut local_objects = 0usize;
                    for container in cluster.node(node) {
                        local_bytes += container.payload.len();
                        for i in 0..container.n_records() {
                            let obj = container.photo(i);
                            local_objects += 1;
                            if predicate(&obj) && tx.send(obj).is_err() {
                                return; // collector hung up
                            }
                        }
                    }
                    bytes.fetch_add(local_bytes, Ordering::Relaxed);
                    objects.fetch_add(local_objects, Ordering::Relaxed);
                });
            }
            drop(tx);
            for obj in rx.iter() {
                matches += 1;
                on_match(obj);
            }
        });

        Ok(ScanReport {
            nodes: n,
            wall: start.elapsed(),
            bytes: bytes.load(Ordering::Relaxed),
            objects: objects.load(Ordering::Relaxed),
            matches,
        })
    }

    /// Start the continuous scan: returns a handle queries attach to.
    pub fn continuous(&self) -> ContinuousScan<'a> {
        ContinuousScan::start(self.cluster)
    }
}

/// An attached query's lifetime bookkeeping.
struct ActiveQuery {
    predicate: ObjPredicate,
    tx: Sender<PhotoObj>,
    /// Containers this query has still to observe, per node. Each node
    /// only decrements its own slot, so a fast node cycling twice can
    /// neither double-count nor double-deliver.
    remaining_per_node: Vec<AtomicUsize>,
    /// Nodes that have finished showing this query their containers.
    nodes_remaining: AtomicUsize,
}

/// The continuous broadcast-disk scan.
pub struct ContinuousScan<'a> {
    cluster: &'a SimCluster,
    queries: Arc<Mutex<Vec<Arc<ActiveQuery>>>>,
    stop: Arc<AtomicBool>,
    /// Completed scan cycles per node (for tests / monitoring).
    cycles: Arc<AtomicUsize>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<'a> ContinuousScan<'a> {
    fn start(cluster: &'a SimCluster) -> ContinuousScan<'a> {
        let queries: Arc<Mutex<Vec<Arc<ActiveQuery>>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let cycles = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        // SAFETY-free trick: we only hand references into scoped data via
        // raw payload clones — nodes own Bytes which are cheap to clone,
        // so worker threads get owned container lists ('static).
        for node in 0..cluster.n_nodes() {
            let containers: Vec<_> = cluster.node(node).to_vec();
            let queries = queries.clone();
            let stop = stop.clone();
            let cycles = cycles.clone();
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for container in &containers {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        // Snapshot of currently attached queries.
                        let snapshot: Vec<Arc<ActiveQuery>> = queries.lock().clone();
                        if snapshot.is_empty() {
                            // Idle: don't burn CPU decoding for nobody.
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        // Queries this node still owes this container to.
                        let watching: Vec<&Arc<ActiveQuery>> = snapshot
                            .iter()
                            .filter(|q| q.remaining_per_node[node].load(Ordering::Acquire) > 0)
                            .collect();
                        if !watching.is_empty() {
                            for i in 0..container.n_records() {
                                let obj = container.photo(i);
                                for q in &watching {
                                    if (q.predicate)(&obj) {
                                        let _ = q.tx.send(obj.clone());
                                    }
                                }
                            }
                        }
                        for q in watching {
                            let prev = q.remaining_per_node[node].fetch_sub(1, Ordering::AcqRel);
                            if prev == 1 {
                                // This node is done with the query; the last
                                // node to finish detaches it (closing its
                                // channel once all Arcs drop).
                                let nodes_left = q.nodes_remaining.fetch_sub(1, Ordering::AcqRel);
                                if nodes_left == 1 {
                                    let mut qs = queries.lock();
                                    qs.retain(|other| !Arc::ptr_eq(other, q));
                                }
                            }
                        }
                    }
                    cycles.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        ContinuousScan {
            cluster,
            queries,
            stop,
            cycles,
            workers,
        }
    }

    /// Attach a query; it completes (channel closes) within one cycle.
    pub fn attach(&self, predicate: ObjPredicate) -> Receiver<PhotoObj> {
        let (tx, rx) = unbounded();
        let per_node: Vec<AtomicUsize> = (0..self.cluster.n_nodes())
            .map(|i| AtomicUsize::new(self.cluster.node(i).len()))
            .collect();
        // Nodes with no containers are done from the start.
        let busy_nodes = per_node
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 0)
            .count();
        if busy_nodes == 0 {
            return rx; // empty cluster: channel closes immediately
        }
        let q = Arc::new(ActiveQuery {
            predicate,
            tx,
            remaining_per_node: per_node,
            nodes_remaining: AtomicUsize::new(busy_nodes),
        });
        self.queries.lock().push(q);
        rx
    }

    /// Number of queries currently attached.
    pub fn active_queries(&self) -> usize {
        self.queries.lock().len()
    }

    /// Completed cycles (any node).
    pub fn cycles(&self) -> usize {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Stop the machine and join its workers.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ContinuousScan<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::{ObjClass, SkyModel};
    use sdss_storage::{ObjectStore, StoreConfig};

    fn cluster(seed: u64, nodes: usize) -> (SimCluster, Vec<PhotoObj>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut s = ObjectStore::new(StoreConfig::default()).unwrap();
        s.insert_batch(&objs).unwrap();
        (SimCluster::from_store(&s, nodes).unwrap(), objs)
    }

    #[test]
    fn one_shot_scan_finds_exactly_the_matches() {
        let (cluster, objs) = cluster(1, 4);
        let machine = ScanMachine::new(&cluster);
        let pred: ObjPredicate = Arc::new(|o| o.class == ObjClass::Quasar && o.mag(2) < 21.0);
        let mut got = Vec::new();
        let report = machine
            .run_query(pred.clone(), |o| got.push(o.obj_id))
            .unwrap();
        let want: Vec<u64> = objs.iter().filter(|o| pred(o)).map(|o| o.obj_id).collect();
        got.sort_unstable();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(report.objects, objs.len());
        assert_eq!(report.matches, got.len());
        assert!(report.bytes > 0);
        assert!(report.aggregate_mbps() > 0.0);
    }

    #[test]
    fn continuous_scan_queries_complete_within_a_cycle() {
        let (cluster, objs) = cluster(3, 3);
        let machine = ScanMachine::new(&cluster);
        let scan = machine.continuous();

        // Attach two queries at different moments.
        let rx1 = scan.attach(Arc::new(|o: &PhotoObj| o.class == ObjClass::Galaxy));
        let got1: Vec<u64> = rx1.iter().map(|o| o.obj_id).collect(); // drains until detach
        let want1 = objs.iter().filter(|o| o.class == ObjClass::Galaxy).count();
        assert_eq!(got1.len(), want1);

        let rx2 = scan.attach(Arc::new(|o: &PhotoObj| o.mag(2) < 19.0));
        let got2 = rx2.iter().count();
        let want2 = objs.iter().filter(|o| o.mag(2) < 19.0).count();
        assert_eq!(got2, want2);

        assert_eq!(scan.active_queries(), 0);
        scan.shutdown();
    }

    #[test]
    fn continuous_scan_concurrent_queries() {
        let (cluster, objs) = cluster(4, 2);
        let machine = ScanMachine::new(&cluster);
        let scan = machine.continuous();
        let rx_a = scan.attach(Arc::new(|o: &PhotoObj| o.class == ObjClass::Star));
        let rx_b = scan.attach(Arc::new(|o: &PhotoObj| o.class == ObjClass::Quasar));
        let a = rx_a.iter().count();
        let b = rx_b.iter().count();
        assert_eq!(a, objs.iter().filter(|o| o.class == ObjClass::Star).count());
        assert_eq!(
            b,
            objs.iter().filter(|o| o.class == ObjClass::Quasar).count()
        );
        scan.shutdown();
    }
}
