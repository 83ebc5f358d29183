from .ann import brute_force_topk, ivf_topk, self_similarity_pairs  # noqa: F401
from .dedup import (  # noqa: F401
    embedding_near_dup_pairs,
    exact_dedup,
    jaccard,
    lsh_candidate_pairs,
    minhash_dedup,
    minhash_signatures,
    ngram_jaccard_pairs,
    simhash_near_dup_pairs,
    simhash_signatures,
)
from .text import fingerprint, lang_id, quality_score, token_stats  # noqa: F401
