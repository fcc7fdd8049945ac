//! The simulated commodity cluster.
//!
//! Stands in for the paper's "array of 20 nodes \[each\] 4 Intel Xeon
//! processors ... 12x18GB disks": every node is a worker thread owning a
//! disjoint, spatially contiguous set of containers (from
//! [`PartitionMap`]). Container payloads are page images; scans
//! deserialize records exactly like the real store, so measured node
//! throughput includes the full decode cost.

use crate::DataflowError;
use bytes::Bytes;
use sdss_catalog::PhotoObj;
use sdss_storage::{ObjectStore, PartitionMap};

/// One container's shipped image on a node.
#[derive(Debug, Clone)]
pub struct NodeContainer {
    pub container_raw: u64,
    pub payload: Bytes,
    pub record_len: usize,
}

impl NodeContainer {
    pub fn n_records(&self) -> usize {
        self.payload.len() / self.record_len
    }

    /// Deserialize record `i` as a full object.
    pub fn photo(&self, i: usize) -> PhotoObj {
        let mut slice = &self.payload[i * self.record_len..(i + 1) * self.record_len];
        PhotoObj::read_from(&mut slice).expect("cluster holds valid records")
    }
}

/// Per-node summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    pub containers: usize,
    pub bytes: usize,
    pub records: usize,
}

/// A simulated cluster: `nodes[i]` is the container set of node `i`.
#[derive(Debug)]
pub struct SimCluster {
    nodes: Vec<Vec<NodeContainer>>,
}

impl SimCluster {
    /// Partition a full-object store over `n_nodes`.
    pub fn from_store(store: &ObjectStore, n_nodes: usize) -> Result<SimCluster, DataflowError> {
        let pm = PartitionMap::build(store, n_nodes)?;
        let mut nodes: Vec<Vec<NodeContainer>> = vec![Vec::new(); n_nodes];
        for c in store.containers() {
            let server = pm
                .server_of(c.id().raw())
                .expect("partition covers all containers");
            // Ship the container as one contiguous payload.
            let mut payload = Vec::with_capacity(c.bytes());
            for rec in c.iter_records() {
                payload.extend_from_slice(rec);
            }
            nodes[server].push(NodeContainer {
                container_raw: c.id().raw(),
                payload: Bytes::from(payload),
                record_len: c.record_len(),
            });
        }
        Ok(SimCluster { nodes })
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, i: usize) -> &[NodeContainer] {
        &self.nodes[i]
    }

    pub fn node_stats(&self, i: usize) -> NodeStats {
        let containers = &self.nodes[i];
        NodeStats {
            containers: containers.len(),
            bytes: containers.iter().map(|c| c.payload.len()).sum(),
            records: containers.iter().map(|c| c.n_records()).sum(),
        }
    }

    pub fn total_bytes(&self) -> usize {
        (0..self.n_nodes()).map(|i| self.node_stats(i).bytes).sum()
    }

    pub fn total_records(&self) -> usize {
        (0..self.n_nodes())
            .map(|i| self.node_stats(i).records)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::SkyModel;
    use sdss_storage::StoreConfig;

    fn store(seed: u64) -> ObjectStore {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut s = ObjectStore::new(StoreConfig::default()).unwrap();
        s.insert_batch(&objs).unwrap();
        s
    }

    #[test]
    fn cluster_preserves_every_record() {
        let s = store(1);
        let cluster = SimCluster::from_store(&s, 4).unwrap();
        assert_eq!(cluster.n_nodes(), 4);
        assert_eq!(cluster.total_records(), s.len());
        assert_eq!(cluster.total_bytes(), s.bytes());
        // Records deserialize identically to the store's.
        let c = &cluster.node(0)[0];
        let obj = c.photo(0);
        let from_store = s.get(obj.obj_id).unwrap();
        assert_eq!(obj, from_store);
    }

    #[test]
    fn nodes_are_balanced() {
        let s = store(3);
        let cluster = SimCluster::from_store(&s, 4).unwrap();
        let sizes: Vec<usize> = (0..4).map(|i| cluster.node_stats(i).bytes).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / 4.0;
        assert!(max / mean < 2.0, "sizes {sizes:?}");
    }

    #[test]
    fn zero_nodes_rejected() {
        let s = store(4);
        assert!(SimCluster::from_store(&s, 0).is_err());
    }

    #[test]
    fn more_nodes_than_containers_leaves_empties() {
        let s = store(5);
        let n = s.num_containers() + 5;
        let cluster = SimCluster::from_store(&s, n).unwrap();
        assert_eq!(cluster.total_records(), s.len());
    }
}
