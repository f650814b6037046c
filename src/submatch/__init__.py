"""Neural subgraph matching via order embeddings over anchored neighborhoods,
with an exact backtracking matcher as oracle and baseline."""
