//! Graph-level passes: quantization and operator fusion.

use unit_dsl::DType;

use crate::ir::{Graph, GraphBuilder, NodeId, OpKind};

/// Quantization: wrap the graph in a `Quantize` entry after each input and
/// a `Dequantize` exit before the output, marking the interior as the int8
/// domain. (Scales and zero points do not affect latency, so they are not
/// modeled; correctness of the int8 kernels themselves is validated at the
/// tensor level.)
#[must_use]
pub fn quantize(graph: &Graph) -> Graph {
    let mut b = GraphBuilder::new(graph.name.clone());
    let mut remap: Vec<NodeId> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.0 as usize]).collect();
        let new_id = match &node.op {
            OpKind::Input(shape) => {
                let mut qshape = shape.clone();
                qshape.dtype = DType::F32;
                let inp = b.add(OpKind::Input(qshape), &[], node.name.clone());
                b.add(OpKind::Quantize, &[inp], format!("{}_q", node.name))
            }
            OpKind::Softmax => {
                let dq = b.add(
                    OpKind::Dequantize,
                    &[inputs[0]],
                    format!("{}_dq", node.name),
                );
                b.add(node.op.clone(), &[dq], node.name.clone())
            }
            other => b.add(other.clone(), &inputs, node.name.clone()),
        };
        remap.push(new_id);
    }
    b.finish(remap[graph.output.0 as usize])
}

/// Operator fusion: `BiasAdd`, `Relu` and residual `Add` nodes whose first
/// input is a convolution/GEMM/dense (or an already-fused chain rooted at
/// one) are folded into the producer kernel — they execute inside the
/// epilogue of the tensorized kernel and cost nothing extra.
///
/// Fusing is only legal when the producer has no *other* consumers: the
/// epilogue rewrites the producer's output in place, so a second consumer
/// would observe post-epilogue values instead of the raw kernel output.
#[must_use]
pub fn fuse_elementwise(graph: &Graph) -> Graph {
    let mut out = graph.clone();
    // Consumer counts over every edge: a multi-consumer producer must
    // stay materialized, so nothing may fuse into it.
    let mut consumers = vec![0usize; out.nodes.len()];
    for node in &out.nodes {
        for input in &node.inputs {
            consumers[input.0 as usize] += 1;
        }
    }
    // Which nodes root a fusible chain.
    let mut fusible_root = vec![false; out.nodes.len()];
    for i in 0..out.nodes.len() {
        let node = &out.nodes[i];
        match &node.op {
            OpKind::Conv(_) | OpKind::Gemm { .. } | OpKind::Dense { .. } => {
                fusible_root[i] = true;
            }
            OpKind::BiasAdd | OpKind::Relu | OpKind::Add => {
                let first = node.inputs[0].0 as usize;
                if fusible_root[first] && consumers[first] == 1 {
                    fusible_root[i] = true;
                    out.nodes[i].fused_into_producer = true;
                }
            }
            _ => {}
        }
    }
    out
}

/// Number of kernels actually launched after fusion (non-fused,
/// non-input nodes).
#[must_use]
pub fn kernel_count(graph: &Graph) -> usize {
    graph
        .nodes
        .iter()
        .filter(|n| !n.fused_into_producer && !matches!(n.op, OpKind::Input(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::TensorShape;
    use crate::workload::ConvSpec;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let input = b.add(
            OpKind::Input(TensorShape::chw(8, 16, 16, DType::F32)),
            &[],
            "data",
        );
        let c1 = b.conv_bn_relu(ConvSpec::new_2d(8, 16, 16, 3, 1, 1), input, "c1");
        let c2 = b.conv_bn_relu(ConvSpec::new_2d(16, 16, 16, 3, 1, 1), c1, "c2");
        let add = b.add(OpKind::Add, &[c2, c1], "residual");
        let s = b.add(OpKind::Softmax, &[add], "sm");
        b.finish(s)
    }

    #[test]
    fn quantize_brackets_the_graph() {
        let q = quantize(&tiny());
        let kinds: Vec<bool> = q
            .nodes
            .iter()
            .map(|n| matches!(n.op, OpKind::Quantize))
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k).count(), 1);
        assert!(q.nodes.iter().any(|n| matches!(n.op, OpKind::Dequantize)));
        // Same conv workloads survive.
        assert_eq!(q.conv_workloads().len(), 2);
    }

    #[test]
    fn fusion_marks_elementwise_chains() {
        let f = fuse_elementwise(&tiny());
        // 2x (bias+relu) fused + residual add fused = 5 fused nodes.
        let fused = f.nodes.iter().filter(|n| n.fused_into_producer).count();
        assert_eq!(fused, 5);
        // Kernels: 2 convs + softmax.
        assert_eq!(kernel_count(&f), 3);
    }

    #[test]
    fn fusion_requires_a_single_consumer() {
        // Regression: a conv output feeding BOTH a ReLU and a residual Add
        // used to fuse the ReLU into the conv, so the Add read
        // post-epilogue values. Neither consumer may fuse here.
        let mut b = GraphBuilder::new("branch");
        let input = b.add(
            OpKind::Input(TensorShape::chw(8, 16, 16, DType::F32)),
            &[],
            "data",
        );
        let conv = b.add(
            OpKind::Conv(ConvSpec::new_2d(8, 16, 16, 3, 1, 1)),
            &[input],
            "conv",
        );
        let relu = b.add(OpKind::Relu, &[conv], "relu");
        let add = b.add(OpKind::Add, &[relu, conv], "residual");
        let g = b.finish(add);
        let f = fuse_elementwise(&g);
        assert!(
            !f.nodes[relu.0 as usize].fused_into_producer,
            "conv has two consumers; fusing the relu would corrupt the add's input"
        );
        // The add's first input (the relu) is not a fused chain root, so
        // the add stays a standalone kernel too.
        assert!(!f.nodes[add.0 as usize].fused_into_producer);
        assert_eq!(kernel_count(&f), 3);
    }

    #[test]
    fn fusion_does_not_touch_pool_chains() {
        let mut b = GraphBuilder::new("pools");
        let input = b.add(
            OpKind::Input(TensorShape::chw(8, 16, 16, DType::U8)),
            &[],
            "data",
        );
        let p = b.add(OpKind::MaxPool { k: 2, s: 2, pad: 0 }, &[input], "pool");
        let r = b.add(OpKind::Relu, &[p], "relu");
        let g = b.finish(r);
        let f = fuse_elementwise(&g);
        assert!(!f.nodes[r.0 as usize].fused_into_producer);
    }
}
