"""Canonical machine specs: the paper's testbed and other fabrics.

``gh200_spec`` describes the paper's GH200 testbed as a
:class:`~repro.hw.spec.schema.MachineSpec` (``PAPER_TESTBED`` is its
2x4 entry, ``ONE_NODE`` the 1x4 one) — byte-identical behaviour against
the seed's hard-coded testbed is pinned by ``tests/sim/test_determinism.py``.  The other entries describe
machines from the related work (PAPERS.md): an NVSwitch-routed DGX-style
node ("Demystifying NVSHMEM") where intra-node D2D serializes through
shared switch ports, and a no-P2P PCIe box where D2D stages through host
memory and all ranks of a node share one NIC (Slingshot-style
stream-triggered systems are closer to this shape than to a GH200).
"""

from __future__ import annotations

from typing import Dict

from repro.hw.params import GH200Params
from repro.hw.spec.schema import (
    GpuSpec,
    Interconnect,
    LinkClass,
    MachineSpec,
    NodeSpec,
    SpecError,
)
from repro.units import GBps, us

#: Fixed port latency of a local memory controller (HBM / DRAM port).
_MEM_PORT_LATENCY = 0.05 * us


def gh200_node(gpus_per_node: int, p: GH200Params) -> NodeSpec:
    """One GH200 node: NVLink pair mesh, C2C host links, NIC per superchip."""
    return NodeSpec(
        gpus=(GpuSpec(),) * gpus_per_node,
        interconnect=Interconnect.PAIR_MESH,
        hbm=LinkClass("hbm", p.hbm_bw, _MEM_PORT_LATENCY),
        d2d=LinkClass("nvlink", p.nvlink_bw, p.nvlink_latency),
        d2h=LinkClass("c2c_d2h", p.c2c_bw, p.c2c_latency),
        h2d=LinkClass("c2c_h2d", p.c2c_bw, p.c2c_latency),
        hostmem=LinkClass("hostmem", p.host_mem_bw, _MEM_PORT_LATENCY),
        nic_per_gpu=True,
    )


def gh200_spec(
    n_nodes: int = 2, gpus_per_node: int = 4, params: GH200Params = None
) -> MachineSpec:
    """The paper's testbed (Section V) as a declarative spec."""
    p = params or GH200Params()
    return MachineSpec(
        name=f"gh200-{n_nodes}x{gpus_per_node}",
        nodes=(gh200_node(gpus_per_node, p),) * n_nodes,
        nic_out=LinkClass("nic_out", p.ib_bw, p.ib_latency / 2),
        nic_in=LinkClass("nic_in", p.ib_bw, p.ib_latency / 2),
        params=p,
    )


def dgx_nvswitch_spec(n_nodes: int = 1, gpus_per_node: int = 8) -> MachineSpec:
    """A DGX/NVSwitch-style machine: switch-routed symmetric D2D.

    Every intra-node D2D transfer takes two hops — the source GPU's switch
    up-port and the destination's down-port — so transfers from one GPU to
    many peers serialize on the shared up-port instead of fanning out over
    a pair mesh.  Per-GPU NICs, H100-class devices.
    """
    p = GH200Params().with_overrides(
        # PCIe-attached host path instead of NVLink-C2C.
        c2c_bw=55 * GBps,
        c2c_latency=1.4 * us,
    )
    node = NodeSpec(
        gpus=(GpuSpec(),) * gpus_per_node,
        interconnect=Interconnect.SWITCH,
        hbm=LinkClass("hbm", p.hbm_bw, _MEM_PORT_LATENCY),
        d2d=LinkClass("switch", 300 * GBps, 2.0 * us),
        d2h=LinkClass("pcie_d2h", p.c2c_bw, p.c2c_latency),
        h2d=LinkClass("pcie_h2d", p.c2c_bw, p.c2c_latency),
        hostmem=LinkClass("hostmem", p.host_mem_bw, _MEM_PORT_LATENCY),
        nic_per_gpu=True,
    )
    return MachineSpec(
        name=f"dgx-nvswitch-{n_nodes}x{gpus_per_node}",
        nodes=(node,) * n_nodes,
        nic_out=LinkClass("nic_out", p.ib_bw, p.ib_latency / 2),
        nic_in=LinkClass("nic_in", p.ib_bw, p.ib_latency / 2),
        params=p,
    )


def pcie_nop2p_spec(n_nodes: int = 2, gpus_per_node: int = 2) -> MachineSpec:
    """A commodity PCIe box without peer-to-peer: the anti-GH200.

    No device P2P at all — intra-node D2D stages through host memory over
    PCIe, peers cannot IPC-map each other (so Kernel-Copy and the UCX
    cuda_ipc transport are rejected by capability, not by node distance),
    and each node's ranks share a single NIC hanging off the host bridge.
    A100-class devices with fewer SMs than the GH200's Hopper.
    """
    p = GH200Params().with_overrides(
        c2c_bw=24 * GBps,        # PCIe gen4 x16 effective
        c2c_latency=1.8 * us,
        ib_bw=25 * GBps,         # 200 Gbit shared HCA
        ib_latency=4.5 * us,
        hbm_bw=1500 * GBps,      # A100-class HBM2e
    )
    node = NodeSpec(
        gpus=(GpuSpec(sm_count=108, hbm_bw=1500 * GBps),) * gpus_per_node,
        interconnect=Interconnect.HOST_STAGED,
        hbm=LinkClass("hbm", p.hbm_bw, _MEM_PORT_LATENCY),
        d2d=None,
        d2h=LinkClass("pcie_d2h", p.c2c_bw, p.c2c_latency),
        h2d=LinkClass("pcie_h2d", p.c2c_bw, p.c2c_latency),
        hostmem=LinkClass("hostmem", p.host_mem_bw, _MEM_PORT_LATENCY),
        nic_per_gpu=False,
    )
    return MachineSpec(
        name=f"pcie-nop2p-{n_nodes}x{gpus_per_node}",
        nodes=(node,) * n_nodes,
        nic_out=LinkClass("nic_out", p.ib_bw, p.ib_latency / 2),
        nic_in=LinkClass("nic_in", p.ib_bw, p.ib_latency / 2),
        params=p,
    )


#: Named specs for the ``python -m repro topo`` CLI and tests.
SPECS: Dict[str, MachineSpec] = {
    "gh200-2x4": gh200_spec(2, 4),
    "gh200-1x4": gh200_spec(1, 4),
    "gh200-2x1": gh200_spec(2, 1),
    "dgx-nvswitch": dgx_nvswitch_spec(),
    "pcie-nop2p": pcie_nop2p_spec(),
}


def named_spec(name: str) -> MachineSpec:
    spec = SPECS.get(name)
    if spec is None:
        raise SpecError(f"unknown machine spec {name!r}; known: {sorted(SPECS)}")
    return spec


#: The testbed of the paper: two nodes, four GH200 superchips each.
PAPER_TESTBED = SPECS["gh200-2x4"]

#: Single-node variant used by the intra-node experiments.
ONE_NODE = SPECS["gh200-1x4"]
