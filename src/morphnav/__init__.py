"""Energy-aware planning and simulation for a drive-and-fly morphing robot.

The package splits into world modeling (env), an energy cost model
(costmodel), multi-modal roadmap construction (roadmap), graph and grid
search (planner), reactive local control (localnav), mission execution
(sim), SVG output (render), and a command line front end (cli).
"""

__version__ = "0.1.0"
