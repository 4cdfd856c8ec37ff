"""Names and units of every metric the benchmark reports."""

# end-to-end metrics of an untraced run (--trace 0), in output order
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics of a traced run (--trace 1), in output order
LAYER_METRICS = {
    "coeff.mul.calls": "count",
    "coeff.mul.s": "s",
    "coeff.mul.term_pairs": "count",
    "coeff.add.calls": "count",
    "coeff.add.s": "s",
    "coeff.us_per_op": "us",
    "clifford.word_mul.calls": "count",
    "clifford.word_matrix.misses": "count",
    "weyl.multiply.calls": "count",
    "weyl.multiply.self_s": "s",
    "weyl.combine_products.calls": "count",
    "weyl.combine_products.self_s": "s",
    "weyl.factor_products": "count",
    "weyl.product_repeat_ratio": "ratio",
    "weyl.r2.divisions": "count",
    "weyl.r2.exact_ratio": "ratio",
    "weyl.r2.s": "s",
    "weyl.out_terms": "count",
    "ops.build.s": "s",
    "ops.cache_misses": "count",
    "ops.cache_hit_ratio": "ratio",
    "verify.pairs_s": "s",
    "verify.reduce_s": "s",
    "verify.pairs": "count",
    "verify.self_s": "s",
    "oracle.apply.calls": "count",
    "oracle.apply.self_s": "s",
    "oracle.apply.term_products": "count",
    "oracle.random_function.s": "s",
    "expr.parse.calls": "count",
    "expr.parse.s": "s",
    "expr.eval.self_s": "s",
    "expr.render.s": "s",
    "trace.overhead_ratio": "ratio",
}
