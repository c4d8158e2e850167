//! The action space: every execution target with its augmented knobs.
//!
//! Section V-C of the paper enumerates the actions for the evaluated
//! edge-cloud system: "mobile CPU with FP32/INT8, DVFS settings; mobile
//! GPU with FP32/FP16, DVFS settings; mobile DSP; cloud CPU with FP32;
//! cloud GPU with FP32; connected mobile CPU with FP32; connected mobile
//! GPU with FP32; and connected mobile DSP". DSPs expose no DVFS ("DSP
//! does not support DVFS yet"), and remote targets run at their own
//! maximum frequency.
//!
//! For the Mi8Pro (23 CPU + 7 GPU V/F steps) this yields
//! 23·2 + 7·2 + 1 + 2 + 3 = **66 actions**, matching the "~66 actions"
//! of the paper's footnote 8.

use autoscale_nn::{Precision, Workload};
use autoscale_platform::ProcessorKind;
use autoscale_sim::{Placement, Request, Simulator};
use serde::{Deserialize, Serialize};

/// The ordered, device-specific list of actions (fully specified
/// [`Request`]s) AutoScale chooses from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionSpace {
    actions: Vec<Request>,
}

impl ActionSpace {
    /// Enumerates the action space for a simulator's host device.
    pub fn for_simulator(sim: &Simulator) -> Self {
        let mut actions = Vec::new();

        // On-device CPU: FP32 and INT8 across every DVFS step.
        if let Some(cpu) = sim.host().processor(ProcessorKind::Cpu) {
            for precision in [Precision::Fp32, Precision::Int8] {
                for freq_index in 0..cpu.dvfs().len() {
                    actions.push(Request {
                        placement: Placement::OnDevice(ProcessorKind::Cpu),
                        precision,
                        freq_index,
                    });
                }
            }
        }
        // On-device GPU: FP32 and FP16 across every DVFS step.
        if let Some(gpu) = sim.host().processor(ProcessorKind::Gpu) {
            for precision in [Precision::Fp32, Precision::Fp16] {
                for freq_index in 0..gpu.dvfs().len() {
                    actions.push(Request {
                        placement: Placement::OnDevice(ProcessorKind::Gpu),
                        precision,
                        freq_index,
                    });
                }
            }
        }
        // On-device DSP and NPU: INT8, fixed frequency. The NPU only
        // appears on the extension devices (the paper's Section V-C
        // future-work knob).
        for kind in [ProcessorKind::Dsp, ProcessorKind::Npu] {
            if sim.host().processor(kind).is_some() {
                actions.push(Request {
                    placement: Placement::OnDevice(kind),
                    precision: Precision::Int8,
                    freq_index: 0,
                });
            }
        }
        // Cloud CPU and GPU at FP32; a cloud TPU (extension) at FP16.
        for kind in [ProcessorKind::Cpu, ProcessorKind::Gpu] {
            if sim.cloud().processor(kind).is_some() {
                actions.push(Request {
                    placement: Placement::Cloud(kind),
                    precision: Precision::Fp32,
                    freq_index: 0,
                });
            }
        }
        if sim.cloud().processor(ProcessorKind::Npu).is_some() {
            actions.push(Request {
                placement: Placement::Cloud(ProcessorKind::Npu),
                precision: Precision::Fp16,
                freq_index: 0,
            });
        }
        // Connected edge CPU and GPU at FP32, plus its DSP at INT8.
        for kind in [ProcessorKind::Cpu, ProcessorKind::Gpu] {
            if sim.tablet().processor(kind).is_some() {
                actions.push(Request {
                    placement: Placement::ConnectedEdge(kind),
                    precision: Precision::Fp32,
                    freq_index: 0,
                });
            }
        }
        if sim.tablet().processor(ProcessorKind::Dsp).is_some() {
            actions.push(Request {
                placement: Placement::ConnectedEdge(ProcessorKind::Dsp),
                precision: Precision::Int8,
                freq_index: 0,
            });
        }

        ActionSpace { actions }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the space is empty (never true for a real device).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actions in order.
    pub fn actions(&self) -> &[Request] {
        &self.actions
    }

    /// The request at an action index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn request(&self, index: usize) -> Request {
        self.actions[index]
    }

    /// The index of a request, if it is in the space.
    pub fn index_of(&self, request: &Request) -> Option<usize> {
        self.actions.iter().position(|r| r == request)
    }

    /// The feasibility mask for a workload: entry `i` is true when action
    /// `i` can execute that workload (e.g. DSP actions are masked out for
    /// MobileBERT).
    pub fn mask(&self, sim: &Simulator, workload: Workload) -> Vec<bool> {
        // lint:hot-exempt(a handful of bools per call: engine construction and the evaluation-only schedulers; engine decisions read the precomputed masks)
        self.actions
            .iter()
            .map(|r| sim.is_feasible(workload, r))
            .collect()
    }

    /// The coarse execution targets of this space: the distinct
    /// (placement, precision) pairs, ignoring DVFS. This is the label
    /// space of the paper's classification baselines (SVM, k-NN), which
    /// "predict the optimal execution target" rather than an exact
    /// voltage/frequency setting.
    pub fn coarse_targets(&self) -> Vec<(Placement, Precision)> {
        let mut targets = Vec::new();
        for r in &self.actions {
            let key = (r.placement, r.precision);
            if !targets.contains(&key) {
                targets.push(key);
            }
        }
        targets
    }

    /// The coarse-target index of an action.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn coarse_of(&self, index: usize) -> usize {
        let r = self.request(index);
        self.coarse_targets()
            .iter()
            .position(|&(p, prec)| p == r.placement && prec == r.precision)
            // lint:allow(panic-in-lib): requests are enumerated from coarse_targets, so position always finds one
            .expect("every action belongs to a coarse target")
    }

    /// Feature encoding of an action for the predictive baselines: a
    /// compact numeric description of where and how the inference runs.
    ///
    /// Layout: `[on_device, connected, cloud, is_cpu, is_gpu, is_dsp,
    /// freq_ratio, precision_bytes]`.
    pub fn action_features(&self, sim: &Simulator, index: usize) -> Vec<f64> {
        let request = self.request(index);
        let (on_device, connected, cloud) = match request.placement {
            Placement::OnDevice(_) => (1.0, 0.0, 0.0),
            Placement::ConnectedEdge(_) => (0.0, 1.0, 0.0),
            Placement::Cloud(_) => (0.0, 0.0, 1.0),
        };
        let kind = request.placement.processor_kind();
        let freq_ratio = sim
            .processor_for(request.placement)
            .map(|p| {
                p.dvfs()
                    .freq_ratio(request.freq_index.min(p.dvfs().max_index()))
            })
            .unwrap_or(1.0);
        // lint:hot-exempt(per-decision feature vector: fixed 8-element construction, consumed immediately by the linear model)
        vec![
            on_device,
            connected,
            cloud,
            (kind == ProcessorKind::Cpu) as u8 as f64,
            (kind == ProcessorKind::Gpu) as u8 as f64,
            (kind == ProcessorKind::Dsp) as u8 as f64,
            freq_ratio,
            request.precision.element_bytes() as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_platform::DeviceId;

    #[test]
    fn mi8pro_has_66_actions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        assert_eq!(ActionSpace::for_simulator(&sim).len(), 66);
    }

    #[test]
    fn s10e_has_65_actions() {
        // 21*2 + 9*2 + 0 (no DSP) + 2 cloud + 3 connected = 65.
        let sim = Simulator::new(DeviceId::GalaxyS10e);
        assert_eq!(ActionSpace::for_simulator(&sim).len(), 65);
    }

    #[test]
    fn moto_has_47_actions() {
        // 15*2 + 6*2 + 2 + 3 = 47.
        let sim = Simulator::new(DeviceId::MotoXForce);
        assert_eq!(ActionSpace::for_simulator(&sim).len(), 47);
    }

    #[test]
    fn every_action_is_feasible_for_some_workload() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let masks: Vec<Vec<bool>> = Workload::ALL.iter().map(|&w| space.mask(&sim, w)).collect();
        for a in 0..space.len() {
            assert!(
                masks.iter().any(|m| m[a]),
                "action {a} ({}) infeasible everywhere",
                space.request(a)
            );
        }
    }

    #[test]
    fn mobilebert_masks_out_coprocessor_actions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let mask = space.mask(&sim, Workload::MobileBert);
        for (i, request) in space.actions().iter().enumerate() {
            let kind = request.placement.processor_kind();
            let expected = match request.placement {
                Placement::Cloud(_) => true, // server middleware runs RC models
                _ => kind == ProcessorKind::Cpu,
            };
            assert_eq!(mask[i], expected, "action {request}");
        }
    }

    #[test]
    fn vision_workloads_have_fully_feasible_masks() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let mask = space.mask(&sim, Workload::InceptionV1);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn request_round_trips_through_index() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        for i in 0..space.len() {
            assert_eq!(space.index_of(&space.request(i)), Some(i));
        }
    }

    #[test]
    fn coarse_targets_cover_every_action_without_dvfs() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let coarse = space.coarse_targets();
        // Mi8Pro: CPU FP32/INT8, GPU FP32/FP16, DSP INT8, 2 cloud,
        // 3 connected = 10 distinct targets.
        assert_eq!(coarse.len(), 10);
        for a in 0..space.len() {
            let idx = space.coarse_of(a);
            assert!(idx < coarse.len());
            let r = space.request(a);
            assert_eq!(coarse[idx], (r.placement, r.precision));
        }
    }

    #[test]
    fn npu_testbed_grows_the_action_space() {
        use autoscale_platform::Device;
        let sim = Simulator::with_devices(
            Device::mi8pro_npu(),
            Device::galaxy_tab_s6(),
            Device::cloud_server_tpu(),
        );
        let space = ActionSpace::for_simulator(&sim);
        // Stock 66 + on-device NPU + cloud TPU = 68.
        assert_eq!(space.len(), 68);
        assert!(space
            .actions()
            .iter()
            .any(|r| matches!(r.placement, Placement::OnDevice(ProcessorKind::Npu))));
        assert!(space
            .actions()
            .iter()
            .any(|r| matches!(r.placement, Placement::Cloud(ProcessorKind::Npu))));
    }

    #[test]
    fn action_features_distinguish_targets() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let feats: Vec<Vec<f64>> = (0..space.len())
            .map(|i| space.action_features(&sim, i))
            .collect();
        let distinct: std::collections::HashSet<String> =
            feats.iter().map(|f| format!("{f:?}")).collect();
        assert_eq!(
            distinct.len(),
            space.len(),
            "features must be unique per action"
        );
    }
}
