"""Config-driven report pipeline: ingest/fetch, analysis stages, table artifacts."""
