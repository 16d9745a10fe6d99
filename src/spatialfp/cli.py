"""Command line interface: mine, gen, check, stats."""

from __future__ import annotations

import argparse
import sys

from . import engine, oracle
from .datagen import GenConfig, PlantedPattern, generate, word_name
from .errors import ConfigInvalid, PointOutOfBounds, SpatialFpError
from .formats import FileSource, write_corpus, write_patterns
from .grid import BoundingBox, Grid, choose_height, encode, parse_gid
from .spatial_mining import expand_sigmas, patterns_to_dict
from .text import Vocabulary, load_stopwords

MALFORMED_ABORT_RATIO = 0.10

# Instance limits for check; the brute-force reference is exponential
# past this envelope. Overridable with --force.
CHECK_MAX_RECORDS = 2000
CHECK_MAX_WORDS = 50
CHECK_MAX_HEIGHT = 3


class _Abort(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _parse_bbox(s: str) -> BoundingBox:
    parts = s.split(",")
    if len(parts) != 4:
        raise _Abort(f"--bbox needs minLon,minLat,maxLon,maxLat, got {s!r}", 2)
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise _Abort(f"--bbox values must be numbers, got {s!r}", 2) from None
    try:
        return BoundingBox(*vals)
    except ValueError as exc:
        raise _Abort(str(exc), 2) from None


def _make_grid(args) -> Grid:
    bbox = _parse_bbox(args.bbox)
    if args.height is not None:
        try:
            return Grid(bbox, args.height)
        except ValueError as exc:
            raise _Abort(str(exc), 2) from None
    try:
        return Grid(bbox, choose_height(bbox, args.cell_meters))
    except ValueError as exc:
        raise _Abort(f"--cell-meters: {exc}", 2) from None


def _parse_sigmas(s: str, height: int) -> list[int]:
    try:
        values = [int(p) for p in s.split(",")]
    except ValueError:
        raise _Abort(f"--sigma values must be integers, got {s!r}", 2) from None
    try:
        return expand_sigmas(values, height)
    except ValueError as exc:
        raise _Abort(str(exc), 2) from None


def _load_stopwords(args) -> frozenset[str]:
    if getattr(args, "stopwords", None):
        try:
            return load_stopwords(args.stopwords)
        except UnicodeDecodeError:
            raise _Abort(f"stopword file {args.stopwords} is not UTF-8") from None
    return frozenset()


def _file_source(args, vocab: Vocabulary) -> FileSource:
    if args.limit is not None and args.limit < 0:
        raise _Abort(f"--limit must be >= 0, got {args.limit}", 2)
    return FileSource(args.input, vocab, _load_stopwords(args), limit=args.limit)


def _grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bbox", required=True,
                   help="minLon,minLat,maxLon,maxLat of the grid")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--height", type=int, help="quadtree subdivision levels")
    size.add_argument("--cell-meters", type=float,
                      help="target leaf cell size; height is derived")


def cmd_mine(args) -> int:
    grid = _make_grid(args)
    sigmas = _parse_sigmas(args.sigma, grid.height)
    vocab = Vocabulary()
    source = _file_source(args, vocab)

    def guard():
        if source.lines_read and source.malformed / source.lines_read > MALFORMED_ABORT_RATIO:
            raise _Abort(
                f"{source.malformed} of {source.lines_read} lines malformed "
                f"(over {MALFORMED_ABORT_RATIO:.0%}), aborting")

    patterns, report = engine.mine(source, sigmas, grid, backend=args.backend,
                                   after_scan=guard)
    write_patterns(args.output, patterns, vocab)
    if args.dict_out:
        vocab.save(args.dict_out)

    lines_read = report.records + source.malformed
    print(f"records read: {lines_read}")
    print(f"skipped out-of-box: {report.skipped}")
    print(f"malformed lines: {source.malformed}")
    print(f"records mined: {report.mined}")
    print(f"distinct words: {report.distinct_words}")
    print(f"retained words: {report.retained_words}")
    print(f"word-cell entries: {report.cell_entries}")
    for level in range(grid.height, -1, -1):
        print(f"patterns level {level}: {report.patterns_by_level.get(level, 0)}")
    print(f"patterns total: {report.pattern_count}")
    print(f"first scan ms: {report.first_scan_ms:.1f}")
    print(f"tree build ms: {report.tree_build_ms:.1f}")
    print(f"growth ms: {report.growth_ms:.1f}")
    print(f"backend: {report.backend}")
    return 0


def _parse_plant(spec: str, grid: Grid) -> PlantedPattern:
    # WORDS@GIDBITS:COUNT with words '+'-separated, e.g. w00003+w00017@0110:50
    try:
        words_part, rest = spec.split("@", 1)
        gid_part, count_part = rest.rsplit(":", 1)
        count = int(count_part)
    except ValueError:
        raise _Abort(f"--plant needs WORDS@GIDBITS:COUNT, got {spec!r}", 2) from None
    wids = []
    for token in words_part.split("+"):
        token = token.strip()
        if token.startswith("w"):
            token = token[1:]
        try:
            wids.append(int(token))
        except ValueError:
            raise _Abort(f"--plant word {token!r} is not an id", 2) from None
    try:
        gid = parse_gid(gid_part, grid.height)
    except SpatialFpError as exc:
        raise _Abort(f"--plant cell: {exc}", 2) from None
    return PlantedPattern(tuple(wids), gid, count)


def cmd_gen(args) -> int:
    grid = _make_grid(args)
    planted = tuple(_parse_plant(spec, grid) for spec in args.plant or ())
    cfg = GenConfig(
        n_records=args.records,
        vocab_size=args.vocab,
        zipf_exponent=args.zipf,
        words_per_record_mean=args.words_mean,
        planted=planted,
        seed=args.seed,
    )
    try:
        records = generate(cfg, grid)
    except ConfigInvalid as exc:
        raise _Abort(str(exc), 2) from None
    write_corpus(args.output, records, word_name)
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_check(args) -> int:
    grid = _make_grid(args)
    sigmas = _parse_sigmas(args.sigma, grid.height)
    vocab = Vocabulary()
    source = _file_source(args, vocab)
    records = list(source)

    distinct = len({w for r in records for w in r.words})
    oversize = []
    if len(records) > CHECK_MAX_RECORDS:
        oversize.append(f"{len(records)} records > {CHECK_MAX_RECORDS}")
    if distinct > CHECK_MAX_WORDS:
        oversize.append(f"{distinct} distinct words > {CHECK_MAX_WORDS}")
    if grid.height > CHECK_MAX_HEIGHT:
        oversize.append(f"height {grid.height} > {CHECK_MAX_HEIGHT}")
    if oversize and not args.force:
        raise _Abort("instance too large for the brute-force reference "
                     f"({'; '.join(oversize)}); pass --force to run anyway", 2)

    patterns, report = engine.mine(records, sigmas, grid)
    mined = patterns_to_dict(patterns)
    reference = oracle.reference_patterns(records, grid, sigmas)
    report_diff = oracle.compare(mined, reference)
    print(f"mined patterns: {len(mined)}")
    print(f"reference patterns: {len(reference)}")
    print(f"backend: {report.backend}")
    if report_diff.ok:
        print("identical")
        return 0
    for line in report_diff.lines():
        print(line)
    print(f"DIFFER: {report_diff.summary()}")
    return 1


def cmd_stats(args) -> int:
    vocab = Vocabulary()
    source = _file_source(args, vocab)
    bbox = _parse_bbox(args.bbox) if args.bbox else None
    grid = Grid(bbox, 0) if bbox else None

    records = 0
    instances = 0
    seen: set[int] = set()
    skipped = 0
    lon_min = lat_min = float("inf")
    lon_max = lat_max = float("-inf")
    for rec in source:
        records += 1
        instances += len(rec.words)
        seen.update(rec.words)
        lon_min = min(lon_min, rec.point.lon)
        lon_max = max(lon_max, rec.point.lon)
        lat_min = min(lat_min, rec.point.lat)
        lat_max = max(lat_max, rec.point.lat)
        if grid is not None:
            try:
                encode(rec.point, grid)
            except PointOutOfBounds:
                skipped += 1

    print(f"records read: {source.lines_read}")
    print(f"malformed lines: {source.malformed}")
    print(f"records: {records}")
    print(f"unique words: {len(seen)}")
    print(f"word instances: {instances}")
    mean = instances / records if records else 0.0
    print(f"mean words per record: {mean:.2f}")
    if records:
        print(f"lon range: [{lon_min}, {lon_max}]")
        print(f"lat range: [{lat_min}, {lat_max}]")
    if bbox is not None:
        print(f"outside bbox: {skipped}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialfp",
        description="Mine spatially localized frequent wordsets from "
                    "geo-tagged short-text records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a record file into a pattern file")
    p.add_argument("--input", required=True, help="line-delimited record file")
    p.add_argument("--output", required=True, help="pattern file to write")
    _grid_flags(p)
    p.add_argument("--sigma", required=True,
                   help="support threshold, single or per-level root-first list")
    p.add_argument("--stopwords", help="stopword file, one word per line")
    p.add_argument("--limit", type=int, help="ingest at most this many records")
    p.add_argument("--dict-out", help="persist the word dictionary here")
    p.add_argument("--backend", default="auto", choices=["auto", "pure"],
                   help="mining backend; both name the one pure Python pipeline")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("gen", help="generate a synthetic record file")
    p.add_argument("--output", required=True)
    _grid_flags(p)
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--zipf", type=float, default=1.1)
    p.add_argument("--words-mean", type=float, default=15.0)
    p.add_argument("--plant", action="append",
                   help="planted pattern WORDS@GIDBITS:COUNT, repeatable")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check",
                       help="compare the miner against the brute-force reference")
    p.add_argument("--input", required=True)
    _grid_flags(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--limit", type=int)
    p.add_argument("--force", action="store_true",
                   help="run even past the reference size limits")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("stats", help="corpus statistics for a record file")
    p.add_argument("--input", required=True)
    p.add_argument("--bbox", help="count records outside this box")
    p.add_argument("--stopwords")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_stats)

    return parser


def _fold_bbox(argv: list[str]) -> list[str]:
    # argparse reads a leading "-" in "-10.0,-5.0,..." as an option, so
    # fold the bbox value into --bbox=... before parsing.
    out = []
    it = iter(argv)
    for token in it:
        if token == "--bbox":
            value = next(it, None)
            out.append(token if value is None else f"--bbox={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_fold_bbox(list(argv)))
    try:
        return args.func(args)
    except _Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpatialFpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
