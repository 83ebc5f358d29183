"""KG benchmark package; see README.md."""
