"""Greedy passage-sequence selection for multi-hop question answering."""
