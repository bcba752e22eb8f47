"""End-to-end miniature experiment: synchronized multi-center training,
whole-volume evaluation, the gradient-interference matrix, and the routing
histogram. Runs in about a minute on one CPU core (sizes are shrunk well
below the package defaults).

Run:  python3 demos/04_train_and_diagnose.py
"""

from dataclasses import replace

from drmc.analysis import interference, parameter_groups, routing_histogram
from drmc.data import build_dataset, default_known_centers
from drmc.model import DRMCNetwork, ModelConfig
from drmc.training import TrainConfig, evaluate, sample_center_batches, train


def main():
    dataset = build_dataset(default_known_centers(), n_train_per_center=2,
                            n_test_per_center=1, shape=(16, 16, 16), seed=0)
    cfg = TrainConfig(epochs=4, patch_size=8, patches_per_center=8,
                      batch_per_center=4)
    net = DRMCNetwork(
        ModelConfig(channels=8, n_experts=2, n_blocks=2, gate="softmax"),
        seed=cfg.seed,
    )

    print("training (4 centers, synchronized gradient averaging)...")
    history = train(net, dataset, cfg)
    for epoch in (0, cfg.epochs - 1):
        rows = [h for h in history if h.epoch == epoch]
        psnrs = ", ".join(f"C{h.center_id}={h.val_psnr:.2f}" for h in rows)
        print(f"  epoch {epoch}: val PSNR {psnrs}")

    test_records = [r for r in dataset if r.split == "test"]
    rows = evaluate(net, test_records, cfg)
    print("\nwhole-volume test metrics:")
    for row in rows:
        print(f"  C{row['center_id']}: PSNR {row['psnr']:.2f} dB, "
              f"lesion bias mean {row['b_mean']:.3f}, max {row['b_max']:.3f}")

    print("\ngradient interference between centers (block 0 FFN bank):")
    bcfg = replace(cfg, batch_per_center=2)
    batches = sample_center_batches(dataset, bcfg, n_batches=5, seed=7)
    groups = parameter_groups(net)
    mat = interference(net, batches, groups["block0_ffn"], group_label="block0_ffn")
    print(mat.text_heatmap())
    print("negative off-diagonals = centers pulling shared weights apart")

    hist = routing_histogram(net, test_records)
    print("\ntop-1 expert per (layer, bank, center):")
    for (layer, bank, center, expert), count in sorted(hist.counts.items()):
        print(f"  block {layer} {bank} C{center}: expert {expert} x{count}")


if __name__ == "__main__":
    main()
