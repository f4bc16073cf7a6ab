//! The cluster-time protocol's message space: the wire frame itself.
//! The actors send and match on the very values the codec encodes
//! (`tempo_service::wire::encode_cluster` / `decode_cluster`).

pub use tempo_service::wire::ClusterFrame;
