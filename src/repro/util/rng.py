"""The reproduction's root seed, recorded in every run manifest."""

#: Root seed for the whole reproduction. Changing it changes cosmetic
#: details (e.g. which synthetic module a loop lands in) but must not change
#: any headline number; tests enforce that invariance for the metrics layer.
ROOT_SEED = 0x4D41_5320  # "MAS "

