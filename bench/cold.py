"""Cold start in a fresh process: ``import subseg`` plus the first
``segment()`` call, which pays the BLAS/LAPACK warm-up every CLI run pays.

    python3 bench/cold.py SRC_DIR SCENE_FILE N M

Prints the seconds spent in the import and in the first call; reading the
scene file between the two is not counted.
"""

import json
import sys
import time


def main(src_dir, scene_file, n, m):
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    import subseg
    import_s = time.perf_counter() - start
    W, _ = subseg.read_trajectory(scene_file)
    start = time.perf_counter()
    subseg.segment(W, subseg.SegmentConfig(n=int(n), m=int(m)))
    first_segment_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_segment_s": first_segment_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
