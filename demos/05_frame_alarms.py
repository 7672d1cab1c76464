"""Walkthrough: flagging a transient burst in a frame sequence.

Fifty 50x50 frames of noise; frames 20..25 carry a drifting chain of length
30 at mean 3 (a burst too faint for the eye at single-frame glance). Alarms
use cuts calibrated on null frames, so the quiet frames stay quiet.
"""

from chainscan import (
    calibrate_alarms,
    detect_frames,
    embed_chain,
    generate_chain,
    generate_null_grid,
    make_config,
)

M = N = 50
BURST = range(20, 26)

config = make_config(M)
l0_cut, scan_cut = calibrate_alarms(M, N, 1, config.x_star, alpha=0.01,
                                    trials=5000, seed=12, config=config)
print(f"calibrated cuts: longest run > {l0_cut:.0f}, scan > {scan_cut:.2f}\n")

frames = []
for k in range(50):
    grid = generate_null_grid(M, N, seed=500 + k)
    if k in BURST:
        chain = generate_chain(M, N, 1, length=30, seed=900 + k)
        grid = embed_chain(grid, chain, 3.0)
    frames.append(grid)

stats = detect_frames(frames, config, l0_cut, scan_cut)
print("frame  run  scan   alarm")
for s in stats:
    mark = " <-- burst" if s.index in BURST else ""
    flag = "ALARM" if s.alarm else ""
    print(f"{s.index:5d} {s.l0_length:4d} {s.x_star_s:6.2f}  {flag:5s}{mark}")

alarmed = [s.index for s in stats if s.alarm]
print(f"\nalarmed frames: {alarmed}")
