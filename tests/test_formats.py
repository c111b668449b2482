"""The bytes of every table and key=value file the package writes.

Each writer gets a fixed tiny input, and its file is compared with literal
bytes: CSV rows end in CRLF, key=value lines in LF.
"""

import numpy as np

from repgraph import LayerConfig, count_flops, gradcheck
from repgraph.autograd import GradCheckReport
from repgraph.bench import BenchResult, write_bench_csv
from repgraph.cli import main
from repgraph.flops import write_flops_csv
from repgraph.gradcheck import CaseResult
from repgraph.stats import AffinityStats, write_affinity_csv
from repgraph.train import TrainConfig, init_toy_model, save_checkpoint


def test_bench_csv(tmp_path):
    write_bench_csv([BenchResult(block="srg", h=4, w=6, c=8, cp=4, s=3, dtype="f32",
                                 median_ms=1.25, iqr_ms=0.0625, peak_mib=2.5, repeats=5)],
                    tmp_path / "bench.csv")
    assert (tmp_path / "bench.csv").read_bytes() == (
        b"block,h,w,c,cp,s,dtype,median_ms,iqr_ms,peak_mib,repeats\r\n"
        b"srg,4,6,8,4,3,f32,1.2500,0.0625,2.50,5\r\n")


def test_flops_csv(tmp_path):
    write_flops_csv(count_flops("brg", 2, 2, 4, 2, s=1), tmp_path / "flops.csv")
    assert (tmp_path / "flops.csv").read_bytes() == (
        b"block,suboperation,macs\r\n"
        b"brg,reduce_proj,32\r\nbrg,offset_conv,16\r\nbrg,sample_shared,32\r\n"
        b"brg,attn_logits,8\r\nbrg,attn_aggregate,8\r\nbrg,expand_proj,32\r\n")


def test_affinity_csvs(tmp_path):
    stats = AffinityStats(histogram=[(0.0, 1e-08, 1), (1e-08, 1.0, 3)],
                          topk_mass=np.array([[0.75, 1.0], [1 / 3, 1.0]]),
                          imbalance=np.zeros(2), n_rows=2, row_len=2)
    hist, topk = write_affinity_csv(stats, tmp_path / "aff")
    assert (hist, topk) == (f"{tmp_path}/aff_hist.csv", f"{tmp_path}/aff_topk.csv")
    assert (tmp_path / "aff_hist.csv").read_bytes() == (
        b"bin_lo,bin_hi,count\r\n0,1e-08,1\r\n1e-08,1,3\r\n")
    assert (tmp_path / "aff_topk.csv").read_bytes() == (
        b"row,k,mass\r\n0,1,0.75\r\n0,2,1\r\n1,1,0.333333333333\r\n1,2,1\r\n")


def test_oracle_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("repgraph.cli.dense_equivalence_diff", lambda n, seed: 2.5e-17)
    assert main(["oracle", "--n", "4", "--out", str(tmp_path / "oracle.csv")]) == 0
    assert (tmp_path / "oracle.csv").read_bytes() == (
        b"n,seed,max_abs_diff,tolerance,passed\r\n4,0,2.500000e-17,1e-06,1\r\n")


def test_gradcheck_csv(tmp_path, monkeypatch, capsys):
    def run_all(seeds):
        return [CaseResult("relu", seeds[0], [
            GradCheckReport(target="x", max_rel_err=1.5e-09, eps=1e-06, tol=1e-05, passed=True),
            GradCheckReport(target="w", max_rel_err=0.25, eps=1e-06, tol=1e-05, passed=False),
        ])]

    monkeypatch.setattr(gradcheck, "run_all", run_all)
    assert main(["gradcheck", "--seed", "3", "--out", str(tmp_path / "gradcheck.csv")]) == 1
    assert (tmp_path / "gradcheck.csv").read_bytes() == (
        b"case,seed,target,max_rel_err,eps,passed\r\n"
        b"relu,3,x,1.5e-09,1e-06,1\r\nrelu,3,w,0.25,1e-06,0\r\n")


def test_checkpoint_key_value_files(tmp_path):
    cfg = TrainConfig(width=2, seed=5, layer=LayerConfig(c=2, cp=1, s=1))
    save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
    ck = tmp_path / "ck"
    assert (ck / "config.txt").read_bytes() == b"width=2\nseed=5\nnum_classes=4\n"
    assert (ck / "layer.txt").read_bytes() == (
        b"c=2\ncp=1\ns=1\nvariant=simple\nfusion=sum\ninit_mode=fresh\ngs=1\ngroups=1\n")
    assert (ck / "manifest.txt").read_bytes() == (
        b"conv1.w=conv1_w.rgt4:2,3,3,3\nconv1.b=conv1_b.rgt4:2\n"
        b"conv2.w=conv2_w.rgt4:2,2,3,3\nconv2.b=conv2_b.rgt4:2\n"
        b"cls.w=cls_w.rgt4:4,2\ncls.b=cls_b.rgt4:4\n"
        b"layer.theta.w=layer_theta_w.rgt4:1,2\nlayer.theta.b=layer_theta_b.rgt4:1\n"
        b"layer.phi.w=layer_phi_w.rgt4:1,2\nlayer.phi.b=layer_phi_b.rgt4:1\n"
        b"layer.g.w=layer_g_w.rgt4:1,2\nlayer.g.b=layer_g_b.rgt4:1\n"
        b"layer.w_off.w=layer_w_off_w.rgt4:2,2\nlayer.w_off.b=layer_w_off_b.rgt4:2\n"
        b"layer.w_out.w=layer_w_out_w.rgt4:2,1\nlayer.w_out.b=layer_w_out_b.rgt4:2\n")
