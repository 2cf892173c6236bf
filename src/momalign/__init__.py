"""Multi-scale second-order moment descriptors with exact Earth Mover's
Distance temporal alignment and few-shot episodic evaluation."""
