# Seed of the seeded sampling (census, descent, CLI); here, descent needs no census.
DEFAULT_SEED = 0xA5EED
